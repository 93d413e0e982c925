"""The session façade: one owner for the partition → store → query loop.

The paper's end-to-end story -- stream edges in, match workload motifs,
place vertices, answer pattern queries with few inter-partition
traversals -- used to exist only as loose parts that every caller (CLI,
benchmarks, examples, tests) wired together by hand.  :class:`Cluster`
and :class:`Session` are the single public surface over that lifecycle:

>>> from repro.api import Cluster, ClusterConfig
>>> from repro.workload import figure1_graph, figure1_workload
>>> config = ClusterConfig(partitions=2, method="loom", capacity=5,
...                        window_size=8, motif_threshold=0.6, seed=0)
>>> session = Cluster.open(config, workload=figure1_workload())
>>> _ = session.ingest(figure1_graph())
>>> session.run_workload(executions=50).remote_probability  # doctest: +SKIP
0.08

Ingest streams events through the shared
:class:`~repro.engine.pipeline.StreamingEngine`; the session mirrors each
batch into its :class:`~repro.cluster.store.DistributedGraphStore` (via
the engine's ``event_hook``) and every placement the partitioner makes
(via :attr:`~repro.partitioning.base.PartitionAssignment.on_assign`), so
the queryable cluster state is maintained *incrementally* as the stream
is consumed -- never rebuilt from a finished assignment.

Parallel execution: ``ingest``/``query``/``run_workload`` take a
``workers=N`` argument (defaulting to ``config.worker.count``).  With
``N > 1`` the session keeps a :class:`~repro.runtime.pool.WorkerPool` of
shard-hosting worker processes, primed from a pickled snapshot of the
store and refreshed whenever the resident state changes; queries fan out
per partition through :class:`~repro.runtime.executor.ShardedExecutor`
and merge back results guaranteed identical to serial execution.  Call
:meth:`Session.close` (or use the session as a context manager) to reap
the workers.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import threading
import time
import warnings
from collections.abc import Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from repro.api.config import ClusterConfig
from repro.api.results import (
    ClusterStats,
    IngestReport,
    QueryResult,
    RebalanceReport,
    RepartitionReport,
    ResilienceReport,
    RetractReport,
    WorkloadReport,
)
from repro.cluster.executor import DistributedQueryExecutor, WorkloadStats
from repro.cluster.store import DistributedGraphStore
from repro.datasets import DATASETS
from repro.engine.pipeline import (
    BatchStats,
    EngineStats,
    StatsHook,
    StreamingEngine,
    as_stream_partitioner,
)
from repro.engine.registry import OFFLINE, PartitionRequest, default_registry
from repro.exceptions import ConcurrentSessionError, SessionError
from repro.graph.labelled import (
    LabelledGraph,
    Vertex,
    _vertex_sort_key,
    edge_key,
)
from repro.obs import MetricsRegistry, SpanTracer, build_registry
from repro.partitioning import edge_cut_fraction, normalised_max_load
from repro.partitioning.base import default_capacity
from repro.replication.hotspot import HotspotReplicator, ReplicationReport
from repro.stream.events import (
    EdgeArrival,
    EdgeRemoval,
    StreamEvent,
    VertexArrival,
    VertexRemoval,
)
from repro.stream.sources import stream_from_graph
from repro.workload.query import PatternQuery
from repro.workload.workloads import Workload

#: Snapshot format identifier (bumped on incompatible layout changes).
SNAPSHOT_SCHEMA = "loom-repro/session/v1"

# Fixed offsets deriving per-purpose RNG seeds from the config's master
# seed.  Constants (not hashes) so snapshots and tests can reproduce any
# derived stream without touching session internals.
STREAM_SEED_OFFSET = 11
DATASET_SEED_OFFSET = 13
WORKLOAD_SEED_OFFSET = 17
REPARTITION_SEED_OFFSET = 19
REPLICATION_SEED_OFFSET = 23
RETRY_SEED_OFFSET = 29


class Cluster:
    """Entry point: open a fresh session or recover a durable one."""

    @classmethod
    def open(
        cls,
        config: ClusterConfig | None = None,
        *,
        workload: Workload | None = None,
        rng: random.Random | None = None,
        **overrides: Any,
    ) -> "Session":
        """Start a session for ``config`` (validated once, up front).

        ``workload`` is required before the first ingest by
        workload-aware methods (``loom``, ``loom_ta``, ``ta-ldg``,
        ``offline_wa``); ingesting a named dataset adopts its bundled
        workload when none was given.  ``rng`` optionally overrides the
        partitioner-builder randomness (by default every draw derives
        from ``config.seed``).  Keyword ``overrides`` build a config in
        place: ``Cluster.open(method="ldg", partitions=8)``.
        """
        if config is None:
            config = ClusterConfig(**overrides)
        elif overrides:
            config = dataclasses.replace(config, **overrides)
        return Session(config, workload=workload, rng=rng)

    @classmethod
    def recover(
        cls,
        wal_dir: str | Path,
        *,
        workload: Workload | None = None,
        config: ClusterConfig | None = None,
    ) -> "Session":
        """Rebuild a crashed (or closed) durable session from its WAL
        directory: newest valid checkpoint + op-log tail.

        Recovery is self-contained -- the directory carries the
        session's own ``config.json`` (pass ``config`` to override it;
        its partition count must match the directory's).  It is also
        *tolerant*: a torn tail (the half-written record a ``kill -9``
        mid-append leaves) is truncated, not fatal, and the
        restored store is byte-identical (columnar image equality) to
        the uninterrupted session at the last durable mutation.  The
        recovered session checkpoints immediately (compacting the
        directory), keeps logging, and reports what replay found on
        :attr:`Session.recovery`.
        """
        from repro.runtime.wal import DurableLog, recover_store

        directory = Path(wal_dir)
        payload = DurableLog.read_config(directory)
        if config is None:
            if payload is None:
                raise SessionError(
                    f"no durable session under {directory}: config.json "
                    "is missing (was this directory ever a wal_dir?)"
                )
            config = ClusterConfig.from_dict(payload)
        elif payload is not None and (
            payload.get("partitions") != config.partitions
        ):
            raise SessionError(
                f"{directory} holds a {payload.get('partitions')}-partition "
                f"session; config asks for {config.partitions} partitions"
            )
        durability = config.durability
        if not durability.enabled or Path(durability.wal_dir) != directory:
            # Recover in place even if the directory moved since the
            # config was persisted (or durability was toggled off).
            durability = dataclasses.replace(
                durability, mode="wal", wal_dir=str(directory)
            )
            config = dataclasses.replace(config, durability=durability)
        store, info = recover_store(
            directory, partitions=config.partitions
        )
        if store.k != config.partitions:
            raise SessionError(
                f"the checkpoint under {directory} holds {store.k} "
                f"partitions; config asks for {config.partitions}"
            )
        session = Session(config, workload=workload)
        session._adopt_recovered(store, info)
        return session


def _locked(method):
    """Serialise a session command on the session's command lock.

    Cross-thread callers block until the running command finishes (the
    serving daemon's per-cluster queue and tests drive sessions from
    several threads); a *same-thread* nested call -- a stats hook or
    signal handler calling back into the façade mid-command -- raises
    :class:`ConcurrentSessionError` instead of deadlocking.
    """

    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        with self._command(method.__name__):
            return method(self, *args, **kwargs)

    return locked


class Session:
    """A live simulated cluster: ingest, query, inspect, re-place, persist.

    Construct through :meth:`Cluster.open` / :meth:`Cluster.recover`.
    All randomness flows from ``config.seed`` (or explicitly passed
    ``rng``/``seed`` arguments); the module-global ``random`` generator
    is never touched, so equal configurations replay identically.
    """

    def __init__(
        self,
        config: ClusterConfig,
        *,
        workload: Workload | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.config = config
        self._workload = workload
        self._build_rng = rng
        self._spec = default_registry.resolve(config.method)
        self._store: DistributedGraphStore | None = None
        self._partitioner = None
        self._engine_stats = EngineStats(batch_size=config.batch_size)
        self._latency = config.latency_model()
        # Sharded runtime state: the pool mirrors the store as of the
        # store's own mutation-tick version; any *effective* mutation
        # ticks it and the next parallel call re-primes stale workers
        # (by delta replay when the journal covers the gap).
        self._pool = None
        #: Pools spawned so far (the fault plan arms per generation).
        self._pool_generation = 0
        # Observability: one registry holds every number the session
        # emits (push-instrumented events plus on-demand scrapes --
        # see Session.metrics); the tracer records per-command spans.
        self._registry = build_registry()
        self._tracer = SpanTracer(registry=self._registry)
        # WAL totals folded in when the durable log is released on close.
        self._wal_records = 0
        self._wal_checkpoints = 0
        self._retry_rng = random.Random(config.seed + RETRY_SEED_OFFSET)
        # Durability: the DurableLog subscribed to the store's wal_hook
        # (None with durability off, or before the store exists).
        self._wal = None
        self._recovery = None
        # Re-entrancy guard: every public command serialises on this
        # lock (see :func:`_locked`); ``_command_owner`` is the
        # (thread ident, command name) currently holding it.  ``close``
        # stays outside the command lock -- commands (repartition) and
        # signal handlers must be able to call it -- and uses its own
        # non-blocking mutex for idempotence under signal re-entry.
        self._command_mutex = threading.Lock()
        self._command_owner: tuple[int, str] | None = None
        self._close_mutex = threading.Lock()
        #: When set to a list, every command appends ``(name, thread
        #: ident)`` *while holding the lock* -- the observed serialised
        #: order concurrency tests replay against.
        self.command_trace: list[tuple[str, int]] | None = None

    @contextmanager
    def _command(self, name: str):
        """Hold the session's command lock for one façade command."""
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
                    yield
            finally:
                self._command_owner = None

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def workload(self) -> Workload | None:
        """The workload the session partitions and samples for."""
        return self._workload

    @property
    def store(self) -> DistributedGraphStore:
        """The incrementally maintained distributed store."""
        if self._store is None:
            raise SessionError("nothing ingested yet: the store is empty")
        return self._store

    @property
    def graph(self) -> LabelledGraph:
        """The resident data graph (grows with every ingest)."""
        return self.store.graph

    @property
    def assignment(self):
        """The vertex -> partition assignment built so far."""
        return self.store.assignment

    @property
    def engine_stats(self) -> EngineStats:
        """Aggregate streaming-engine statistics across all ingests."""
        return self._engine_stats

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
        return self._store is not None and self._store.is_complete

    def partition_of(self, vertex: Vertex) -> int | None:
        """The partition hosting ``vertex`` (``None`` if unassigned)."""
        return self.store.assignment.partition_of(vertex)

    def _derived_rng(self, offset: int, seed: int | None) -> random.Random:
        return random.Random(self.config.seed + offset if seed is None else seed)

    def _require_complete(self) -> None:
        if self._store is None or self._store.graph.num_vertices == 0:
            raise SessionError("nothing ingested yet")
        if not self._store.is_complete:
            raise SessionError(
                "assignment incomplete: finish ingesting before querying"
            )

    # ------------------------------------------------------------------
    # Sharded multi-process runtime
    # ------------------------------------------------------------------
    @property
    def pool(self):
        """The live :class:`~repro.runtime.pool.WorkerPool` (or None)."""
        return self._pool

    def _resolve_workers(self, workers: int | None) -> int:
        if workers is None:
            return self.config.worker.count
        if workers < 1:
            raise SessionError("workers must be >= 1 (or None)")
        return workers

    @property
    def _store_version(self) -> int:
        """The store's mutation-tick version (0 before first ingest).

        No-op operations (an ingest of zero events, a failed retract, a
        same-label re-add) do not tick, so they never trigger a worker
        refresh broadcast.
        """
        return 0 if self._store is None else self._store.mutation_ticks

    def _pending_delta(self, pool):
        """The journalled mutation log bridging ``pool.version`` to the
        store's current version, or ``None`` when only a full snapshot
        can close the gap (journal overflow, wholesale assignment
        adoption, or a version mismatch)."""
        from repro.runtime.mailbox import DeltaRefresh

        store = self.store
        if not store.journal_enabled:
            return None
        ops = store.drain_journal()
        if ops is None:
            return None
        if pool.version + len(ops) != store.mutation_ticks:
            # The journal does not line up with the pool's primed
            # version (e.g. the pool outlived a journal restart); a
            # replay would corrupt the replicas.
            return None
        return DeltaRefresh(
            from_version=pool.version,
            to_version=store.mutation_ticks,
            capacity=store.assignment.capacity,
            ops=ops,
        )

    def _ensure_pool(self, workers: int):
        """A primed pool of ``workers`` processes mirroring the store.

        Reuses the live pool when the size matches; when the resident
        state changed since it was primed, the workers replay the
        store's journalled mutation delta in place (O(changes)), falling
        back to a full columnar snapshot broadcast when no valid delta
        covers the gap.  A size change, a dead pool, or a failed refresh
        (which closes the pool) respawns from scratch.
        """
        from repro.runtime.pool import WorkerCrashError, WorkerPool
        from repro.runtime.snapshot import ShardSnapshot

        worker = self.config.worker
        requested = min(workers, self.config.partitions)
        pool = self._pool
        if pool is not None and (
            not pool.alive or pool.worker_count != requested
        ):
            pool.close()
            pool = self._pool = None
        if pool is not None and pool.version != self._store_version:
            delta = self._pending_delta(pool)
            if delta is None:
                self._registry.inc("resilience.delta_full_fallbacks")
            try:
                if delta is not None:
                    pool.refresh_delta(delta)
                else:
                    pool.refresh(
                        ShardSnapshot.of(
                            self.store, version=self._store_version
                        )
                    )
                self.store.restart_journal()
            except WorkerCrashError:
                # refresh closed the pool; fall through to a respawn
                # (spawn failures propagate to the caller's policy).
                pool = self._pool = None
        if pool is None:
            snapshot = ShardSnapshot.of(
                self.store, version=self._store_version
            )
            # Each spawn consumes a generation even when it fails: a
            # scripted boot fault must not re-arm for the respawn that
            # replaces its victim.
            generation = self._pool_generation
            self._pool_generation += 1
            pool = WorkerPool(
                snapshot,
                workers=requested,
                start_method=worker.start_method,
                timeout=worker.request_timeout,
                fault_plan=worker.fault_plan,
                generation=generation,
                registry=self._registry,
            )
            self._pool = pool
            if generation > 0:
                self._registry.inc("resilience.worker_respawns")
            if not pool.uses_shared_memory:
                self._registry.inc("resilience.shm_inline_degradations")
            # The pool now mirrors the store exactly: start (or restart)
            # the journal so the next refresh can ship a delta.
            self.store.enable_journal(worker.max_delta_events)
        return pool

    def _backoff(self, attempt: int) -> None:
        """Sleep before retry ``attempt`` (1-based): exponential base,
        jittered from the session's own seeded RNG (reproducible)."""
        base = self.config.worker.retry_backoff
        if base <= 0:
            return
        delay = base * (2 ** (attempt - 1))
        time.sleep(delay * (0.5 + self._retry_rng.random()))

    def _with_pool(self, workers: int, run):
        """Run ``run(pool)`` under the bounded retry/respawn policy.

        A worker crash/hang/timeout anywhere in provisioning or in the
        call itself closes the pool; the session retries up to
        ``worker.max_retries`` times with jittered exponential backoff,
        respawning a fresh pool each time (a scripted fault never
        re-arms across generations, and a real transient fault gets a
        clean slate).  A budget exhausted degrades to ``None`` (= run
        in-process) with a warning when ``fallback_serial`` is on, and
        raises otherwise.
        """
        from repro.runtime.pool import WorkerCrashError

        worker = self.config.worker
        attempts = 0
        while True:
            try:
                return run(self._ensure_pool(workers))
            except WorkerCrashError as error:
                if attempts < worker.max_retries:
                    attempts += 1
                    self._registry.inc("resilience.call_retries")
                    self._backoff(attempts)
                    continue
                if worker.fallback_serial:
                    self._registry.inc("resilience.serial_fallbacks")
                    warnings.warn(
                        f"worker pool failed (after {attempts} "
                        "retries); degraded to in-process serial "
                        f"execution: {error}",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    return None
                raise

    def _pool_or_fallback(self, workers: int):
        """Provision the pool under the retry/fallback policy;
        ``None`` means the call runs in-process."""
        return self._with_pool(workers, lambda pool: pool)

    def close(self) -> None:
        """Reap the worker pool and release the durable log.

        Idempotent and crash-ordering-safe: safe to call twice, after a
        degradation, or with every worker already dead (a dead worker's
        pipe cannot hang the shutdown -- the pool bounds each join and
        escalates to terminate).  Serial in-memory state is untouched
        and the session stays usable; durable logging ends here, with
        the WAL flushed so ``Cluster.recover`` restores exactly the
        closed state.

        Signal-safe: ``close`` never takes the command lock (a SIGINT
        handler must be able to close a session whose command the
        interrupt abandoned mid-flight), and a re-entrant call landing
        while another ``close`` is between its teardown steps returns
        at once instead of double-releasing.
        """
        if not self._close_mutex.acquire(blocking=False):
            return
        try:
            pool, self._pool = self._pool, None
            try:
                if pool is not None:
                    pool.close()
            finally:
                self._release_wal()
        finally:
            self._close_mutex.release()

    def _release_wal(self) -> None:
        """Flush/close the durable log, folding its totals into the
        session counters (stats() keeps reporting them afterwards)."""
        wal, self._wal = self._wal, None
        if wal is not None:
            self._wal_records += wal.records
            self._wal_checkpoints += wal.checkpoints
            wal.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    @property
    def wal(self):
        """The live :class:`~repro.runtime.wal.DurableLog` (or None)."""
        return self._wal

    @property
    def recovery(self):
        """The :class:`~repro.runtime.wal.RecoveryInfo` of a session
        built by :meth:`Cluster.recover` (``None`` otherwise)."""
        return self._recovery

    @property
    def resilience(self) -> ResilienceReport:
        """Cumulative degradation/recovery counters (also on
        :meth:`stats`)."""
        value = self._registry.value
        wal = self._wal
        return ResilienceReport(
            worker_respawns=int(value("resilience.worker_respawns")),
            call_retries=int(value("resilience.call_retries")),
            serial_fallbacks=int(value("resilience.serial_fallbacks")),
            delta_full_fallbacks=int(value("resilience.delta_full_fallbacks")),
            shm_inline_degradations=int(
                value("resilience.shm_inline_degradations")
            ),
            wal_records=self._wal_records
            + (wal.records if wal is not None else 0),
            wal_checkpoints=self._wal_checkpoints
            + (wal.checkpoints if wal is not None else 0),
        )

    @_locked
    def checkpoint(self) -> int:
        """Force a durable columnar checkpoint now (truncating the op
        log); returns the checkpointed mutation-tick count.  Requires
        durability on and a resident store."""
        if self._wal is None:
            raise SessionError(
                "no durable log: durability is off, nothing was "
                "ingested yet, or the session was closed"
            )
        return self._wal.checkpoint()

    def _bind_wal(self, *, fresh: bool) -> None:
        """Create the durable log and subscribe the resident store.

        ``fresh=True`` (first store of a new session) refuses a
        directory that already holds durable state -- silently
        appending to another session's log would interleave two
        histories; ``Cluster.recover`` is the way in.  ``fresh=False``
        (recovery, repartition swap) additionally checkpoints at once,
        making the directory canonical for the adopted state.
        """
        durability = self.config.durability
        if (
            not durability.enabled
            or self._wal is not None
            or self._store is None
        ):
            return
        from repro.runtime.wal import DurableLog, has_state

        directory = Path(durability.wal_dir)
        if fresh and has_state(directory):
            raise SessionError(
                f"{directory} already holds durable state; use "
                "Cluster.recover to restore it (or point wal_dir at an "
                "empty directory)"
            )
        log = DurableLog(
            directory,
            sync=durability.sync,
            segment_bytes=durability.segment_bytes,
            checkpoint_interval=durability.checkpoint_interval,
        )
        log.write_config(self.config.as_dict())
        log.bind(self._store)
        self._wal = log
        if not fresh:
            log.checkpoint()

    def _adopt_recovered(self, store: DistributedGraphStore, info) -> None:
        """Install a store rebuilt by WAL recovery and resume logging."""
        self._store = store
        self._recovery = info
        self._bind_wal(fresh=False)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
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
        """Stream ``source`` into the cluster and place every vertex.

        ``source`` is one of

        * a sequence of stream events (vertex/edge arrivals),
        * a :class:`~repro.graph.labelled.LabelledGraph`, serialised
          under ``config.ordering`` with a seed-derived RNG, or
        * a built-in dataset name (``"social"``, ``"fraud"``,
          ``"citation"``, ``"protein"``; ``size`` scales it) -- the
          dataset's bundled workload is adopted when the session has
          none.

        Streaming methods consume the events through the shared
        :class:`~repro.engine.pipeline.StreamingEngine` in
        ``config.batch_size`` batches (``stats_hooks`` observe each
        batch) while the store is co-maintained incrementally; offline
        methods see the whole graph, then their finished assignment is
        mirrored in.  ``graph`` optionally names the already-materialised
        graph the events replay (spares a builder that reads size hints
        -- Fennel -- replaying them).  The stream is fully placed on
        return -- the window is flushed -- so the session is immediately
        queryable.

        A derived capacity (``config.capacity is None``) grows with the
        resident graph across ingests; an explicit one is a hard
        invariant, and ingesting past it raises
        ``CapacityExceededError`` (the stream is placed up to the
        failing vertex; open a fresh session with more headroom to
        retry).

        ``workers=N`` (default ``config.worker.count``) additionally
        shards the post-assignment mirror work across ``N`` worker
        processes: once the stream is placed, each worker materialises
        its shard replica from the pickled store snapshot concurrently,
        leaving the pool primed for parallel queries.  Placement itself
        is inherently sequential (streaming heuristics are
        order-dependent by definition), so the coordinator's assignment,
        store and report are identical whatever ``N`` is.
        """
        if workload is not None:
            self._adopt_workload(workload)
        events, source_graph = self._resolve_source(
            source, size=size, graph=graph, rng=rng, seed=seed
        )
        began = time.perf_counter()
        vertices = edges = removals = 0
        for event in events:
            if isinstance(event, VertexArrival):
                vertices += 1
            elif isinstance(event, EdgeArrival):
                edges += 1
            else:
                removals += 1
        self._grow_capacity(vertices)
        if self._spec.kind == OFFLINE:
            self._ingest_offline(events, source_graph, incoming=vertices)
        else:
            partitioner = self._ensure_partitioner(
                events, source_graph, incoming=vertices
            )
            engine = StreamingEngine(
                partitioner,
                batch_size=self.config.batch_size,
                hooks=(*stats_hooks, self._observe_batch),
                event_hook=self._mirror_batch,
            )
            engine.run(events)
            self._engine_stats.merge(engine.stats)
        effective_workers = self._resolve_workers(workers)
        # Reported count is the *actual* pool size (the pool caps at
        # config.partitions, and provisioning may degrade to serial).
        pool_workers = 1
        shard_import_seconds = 0.0
        if effective_workers > 1 and self.store.is_complete:
            pool = self._pool_or_fallback(effective_workers)
            if pool is not None:
                pool_workers = pool.worker_count
                shard_import_seconds = max(
                    (handle.import_seconds for handle in pool.handles),
                    default=0.0,
                )
        seconds = time.perf_counter() - began
        return IngestReport(
            events=len(events),
            vertices=vertices,
            edges=edges,
            seconds=seconds,
            assigned_total=self.store.assignment.num_assigned,
            removals=removals,
            workers=pool_workers,
            shard_import_seconds=shard_import_seconds,
        )

    def _adopt_workload(self, workload: Workload) -> None:
        if self._workload is not None and self._workload is not workload:
            raise SessionError(
                "session already carries a workload; open a fresh session "
                "(or repartition) to change it"
            )
        self._workload = workload

    def _resolve_source(
        self,
        source: Sequence[StreamEvent] | LabelledGraph | str,
        *,
        size: int | None,
        graph: LabelledGraph | None,
        rng: random.Random | None,
        seed: int | None,
    ) -> tuple[list[StreamEvent], LabelledGraph | None]:
        """Normalise any ingest source into (events, materialised graph)."""
        if isinstance(source, str):
            if source not in DATASETS:
                raise SessionError(
                    f"unknown dataset {source!r}; choose from "
                    f"{sorted(DATASETS)}"
                )
            make_graph, make_workload = DATASETS[source]
            dataset_rng = rng or self._derived_rng(DATASET_SEED_OFFSET, seed)
            args = () if size is None else (size,)
            try:
                source = make_graph(*args, rng=dataset_rng)
            except ValueError as error:
                raise SessionError(
                    f"dataset {source!r} cannot be built at size {size}: "
                    f"{error}"
                ) from error
            if self._workload is None:
                self._workload = make_workload()
        if isinstance(source, LabelledGraph):
            stream_rng = rng or self._derived_rng(STREAM_SEED_OFFSET, seed)
            events = stream_from_graph(
                source, ordering=self.config.ordering, rng=stream_rng
            )
            return events, source
        return list(source), graph

    def _ensure_store(self, capacity: int) -> DistributedGraphStore:
        if self._store is None:
            self._store = DistributedGraphStore.incremental(
                self.config.partitions, capacity
            )
            self._bind_wal(fresh=True)
        return self._store

    def _resolve_capacity(self, incoming_vertices: int) -> int:
        if self._store is not None:
            return self._store.assignment.capacity
        if self.config.capacity is not None:
            return self.config.capacity
        return default_capacity(
            incoming_vertices, self.config.partitions, self.config.slack
        )

    def _grow_capacity(self, incoming_vertices: int) -> None:
        """Keep a derived capacity in step with the growing resident graph.

        An explicit ``config.capacity`` is a hard invariant the caller
        chose (ingesting past it raises ``CapacityExceededError``, as it
        must); a derived ``ceil(slack * n / k)`` bound tracks the total
        ``n`` after each ingest, so grow-by-ingest and recover-then-
        ingest never hit a ceiling frozen at the first ingest's size.
        """
        if self._store is None or self.config.capacity is not None:
            return
        total = self._store.graph.num_vertices + incoming_vertices
        needed = default_capacity(
            total, self.config.partitions, self.config.slack
        )
        if needed > self._store.assignment.capacity:
            # Through the store (not its assignment directly) so the
            # WAL records the new ceiling for recovery replay.
            self._store.grow_capacity(needed)
            if self._partitioner is not None:
                self._partitioner.assignment.grow_capacity(needed)

    def _build_request(
        self,
        events: Sequence[StreamEvent],
        graph: LabelledGraph | None,
        capacity: int,
    ) -> PartitionRequest:
        config = self.config
        request = PartitionRequest(
            graph=graph,
            events=events,
            k=config.partitions,
            capacity=capacity,
            slack=config.slack,
            workload=self._workload,
            window_size=config.window_size,
            motif_threshold=config.motif_threshold,
            seed=config.seed,
            rng=self._build_rng,
            options=dict(config.method_options),
        )
        self._spec.check_request(request)
        return request

    def _ensure_partitioner(
        self,
        events: Sequence[StreamEvent],
        source_graph: LabelledGraph | None,
        *,
        incoming: int,
    ):
        """Build the streaming partitioner on first ingest (capacity and
        size hints need the stream), wire its assignment into the store.
        The store itself is fed per batch by the engine's event hook on
        every path; a builder that wants the stream's size derives it
        (:meth:`~repro.engine.registry.PartitionRequest.size_hint`).
        """
        if self._partitioner is not None:
            return self._partitioner
        capacity = self._resolve_capacity(
            source_graph.num_vertices if source_graph is not None else incoming
        )
        request = self._build_request(events, source_graph, capacity)
        partitioner = as_stream_partitioner(
            self._spec.build(request),
            k=self.config.partitions,
            capacity=capacity,
        )
        store = self._ensure_store(capacity)
        # A recovered session seeds the fresh partitioner with the
        # already-placed vertices, then mirrors every new placement.
        for vertex, partition in store.assignment.assigned().items():
            partitioner.assignment.assign(vertex, partition)
        partitioner.assignment.on_assign = store.assign_vertex
        # Churn mirror: retractions replay into the store's assignment in
        # the partitioner's own processing order, exactly like placements
        # (the graph side of a removal rides the batch event hook).  The
        # store-level hook keeps the mutation journal exact: every
        # assignment retraction the coordinator sees is an op the worker
        # replicas replay in the same order.
        partitioner.assignment.on_remove = store.retract_assignment
        self._partitioner = partitioner
        return partitioner

    def _mirror_batch(self, batch: Sequence[StreamEvent]) -> None:
        """Engine event hook: apply each raw batch to the store graph --
        arrivals grow it, removals retract (placement slots and replica
        entries of a deleted vertex go with it)."""
        store = self._store
        for event in batch:
            if isinstance(event, VertexArrival):
                store.add_vertex(event.vertex, event.label)
            elif isinstance(event, EdgeArrival):
                store.add_edge(event.u, event.v)
            elif isinstance(event, EdgeRemoval):
                store.remove_edge(event.u, event.v)
            else:
                store.remove_vertex(event.vertex)

    def _ingest_offline(
        self,
        events: Sequence[StreamEvent],
        source_graph: LabelledGraph | None,
        *,
        incoming: int,
    ) -> None:
        """Offline methods see the whole graph; their finished assignment
        is mirrored into the store (re-placing everything on re-ingest)."""
        had_residents = (
            self._store is not None and self._store.graph.num_vertices > 0
        )
        capacity = self._resolve_capacity(
            source_graph.num_vertices if source_graph is not None else incoming
        )
        store = self._ensure_store(capacity)
        self._mirror_batch(events)
        whole = (
            store.graph
            if had_residents or source_graph is None
            else source_graph
        )
        request = self._build_request(events, whole, capacity)
        assignment = self._spec.build(request)
        placements = assignment.assigned()
        if had_residents:
            # Offline re-ingest re-partitions the whole resident graph.
            # Replicas were provisioned under the discarded placement;
            # every resident whose partition changes is retracted before
            # anything is placed, so no partition overflows mid-swap.
            store.clear_replicas()
            for vertex, partition in placements.items():
                if store.assignment.partition_of(vertex) != partition:
                    store.retract_assignment(vertex)
        for vertex, partition in placements.items():
            if vertex not in store.assignment:
                store.assign_vertex(vertex, partition)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    @_locked
    def query(
        self,
        pattern: PatternQuery | LabelledGraph,
        *,
        name: str = "adhoc",
        track_edges: bool = False,
        workers: int | None = None,
    ) -> QueryResult:
        """Execute one pattern query to completion, counting traversals.

        ``workers=N`` (default ``config.worker.count``) fans candidate
        expansion out per partition across the worker pool; the result
        is identical to serial execution by construction.
        """
        if not isinstance(pattern, PatternQuery):
            pattern = PatternQuery(name, pattern)
        self._require_complete()
        executions = self._run_queries(
            [pattern], self._resolve_workers(workers), track_edges
        )
        execution = executions[0]
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
        """Sample ``executions`` queries by frequency and execute them all.

        Defaults to the session's own workload; the sampler draws from
        ``rng``, else from a ``random.Random`` derived from ``seed`` (or
        the config seed), so repeated calls replay the same stream.
        ``workers=N`` (default ``config.worker.count``) executes the
        whole sampled stream in one batched fan-out across the worker
        pool; the report is identical to the serial one under the same
        seed.
        """
        target = workload or self._workload
        if target is None:
            raise SessionError(
                "no workload: pass one here or when opening the session"
            )
        self._require_complete()
        sampler = rng or self._derived_rng(WORKLOAD_SEED_OFFSET, seed)
        # Sample once, outside the retry loop: a retried fan-out must
        # re-execute the identical query stream (the sampler is
        # stateful), and the serial path aggregates the same list --
        # field-identical reports whichever path answered.
        queries = list(target.sample_many(executions, sampler))
        results = self._run_queries(
            queries, self._resolve_workers(workers), track_edges
        )
        stats = WorkloadStats()
        stats.ledger.track_edges = track_edges
        for execution in results:
            stats.observe(execution)
        return WorkloadReport.from_stats(stats, self._latency)

    def _run_queries(self, queries, workers: int, track_edges: bool):
        """Execute ``queries`` in one batch: fanned out across the pool
        under the retry policy when ``workers > 1``, in-process when
        serial (or when every retry was exhausted and the crash policy
        degraded the call)."""
        if workers > 1:
            from repro.runtime.executor import ShardedExecutor

            results = self._with_pool(
                workers,
                lambda pool: ShardedExecutor(
                    self.store,
                    pool,
                    track_edges=track_edges,
                    # The session's retry loop owns crash policy; the
                    # executor must surface the crash, not degrade.
                    fallback=False,
                ).run(queries),
            )
            if results is not None:
                self._observe_queries(results)
                return results
        serial = DistributedQueryExecutor(
            self.store, track_edges=track_edges
        )
        results = [serial.execute(query) for query in queries]
        self._observe_queries(results)
        return results

    def _observe_batch(self, batch: BatchStats) -> None:
        """Per-batch engine instrumentation (histogram only: the
        cumulative engine counters are scraped from
        :class:`EngineStats`, the authoritative source)."""
        self._registry.observe("engine.batch_seconds", batch.seconds)

    def _observe_queries(self, executions) -> None:
        """Semantic executor counters from the merged results.

        Counted off the *merged* execution records, which are identical
        serial vs parallel by construction -- so these series are too
        (the worker-delta differential test pins both halves).
        """
        registry = self._registry
        registry.inc("executor.queries", len(executions))
        answers = local = remote = 0
        for execution in executions:
            answers += execution.matches
            local += execution.ledger.local
            remote += execution.ledger.remote
        registry.inc("executor.answers", answers)
        registry.inc("executor.traversals", local, scope="local")
        registry.inc("executor.traversals", remote, scope="remote")

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @_locked
    def stats(self) -> ClusterStats:
        """One snapshot of graph, balance, engine and matcher counters."""
        store = self._store
        engine = self._engine_stats
        if store is None:
            vertices = edges = assigned = 0
            sizes: list[int] = []
            capacity = self.config.capacity
            cut = None
            max_load = 0.0
            replication = 1.0
        else:
            vertices = store.graph.num_vertices
            edges = store.graph.num_edges
            assigned = store.assignment.num_assigned
            sizes = store.assignment.sizes()
            capacity = store.assignment.capacity
            complete = store.is_complete and vertices > 0
            cut = (
                edge_cut_fraction(store.graph, store.assignment)
                if complete
                else None
            )
            max_load = (
                normalised_max_load(store.assignment) if assigned else 0.0
            )
            replication = store.replication_factor()
        partitioner = self._partitioner
        counters = getattr(partitioner, "stats", None)
        matcher = getattr(partitioner, "matcher", None)
        matcher_counters = getattr(matcher, "stats", None)
        return ClusterStats(
            method=self.config.method,
            partitions=self.config.partitions,
            capacity=capacity,
            vertices=vertices,
            edges=edges,
            assigned=assigned,
            sizes=sizes,
            cut_fraction=cut,
            max_load=max_load,
            replication_factor=replication,
            engine_batches=engine.batches,
            engine_events=engine.events,
            engine_seconds=engine.seconds,
            events_per_second=engine.events_per_second,
            peak_window_occupancy=engine.peak_window_occupancy,
            stage_seconds=dict(engine.stage_seconds),
            partitioner_counters=(
                dict(counters) if isinstance(counters, dict) else None
            ),
            matcher_counters=(
                dict(matcher_counters)
                if isinstance(matcher_counters, dict)
                else None
            ),
            resilience=self.resilience,
        )

    @_locked
    def metrics(self) -> dict[str, Any]:
        """One consistent metrics snapshot (``docs/observability.md``).

        Collection is mostly pull-based: cumulative sources -- the
        engine's :class:`EngineStats`, the matcher ledgers, the LOOM
        group counters, WAL totals -- are scraped into the registry
        here, on demand, so the hot loops never pay per-event
        instrumentation.  Push-based series (latency histograms,
        retry/respawn counters, merged worker deltas, command counts)
        are already resident.  Returns the registry's canonical
        JSON-plain snapshot; render with
        :func:`repro.obs.render_prom` / :func:`repro.obs.render_json`.
        """
        self._scrape_metrics()
        return self._registry.snapshot()

    def _scrape_metrics(self) -> None:
        """Fold every pull-collected source into the registry.

        Scrapes write *absolute* values (``set_value``), so repeated
        calls are idempotent and never double-count; the authoritative
        home of each number stays where it always lived.
        """
        registry = self._registry
        engine = self._engine_stats
        registry.set_value("engine.batches", engine.batches)
        registry.set_value("engine.events", engine.events)
        registry.set_value("engine.seconds", engine.seconds)
        registry.set(
            "engine.window_occupancy", engine.peak_window_occupancy
        )
        for stage, seconds in sorted(engine.stage_seconds.items()):
            registry.set("engine.stage_seconds", seconds, stage=stage)
        partitioner = self._partitioner
        counters = getattr(partitioner, "stats", None)
        if isinstance(counters, dict):
            for key, value in sorted(counters.items()):
                registry.set_value(
                    "partitioner.counters", value, key=key
                )
        matcher = getattr(partitioner, "matcher", None)
        matcher_counters = getattr(matcher, "stats", None)
        if isinstance(matcher_counters, dict):
            for kind, value in sorted(matcher_counters.items()):
                registry.set_value("matcher.events", value, kind=kind)
        timings = getattr(matcher, "timings", None)
        if isinstance(timings, dict):
            for stage, seconds in sorted(timings.items()):
                registry.set(
                    "matcher.stage_seconds", seconds, stage=stage
                )
        store = self._store
        if store is not None:
            registry.set("store.vertices", store.graph.num_vertices)
            registry.set("store.edges", store.graph.num_edges)
        pool = self._pool
        registry.set(
            "pool.workers", 0 if pool is None else pool.worker_count
        )
        wal = self._wal
        registry.set_value(
            "wal.records",
            self._wal_records + (wal.records if wal is not None else 0),
        )
        registry.set_value(
            "wal.checkpoints",
            self._wal_checkpoints
            + (wal.checkpoints if wal is not None else 0),
        )

    # ------------------------------------------------------------------
    # Repartition
    # ------------------------------------------------------------------
    @_locked
    def repartition(
        self,
        method: str | None = None,
        *,
        window_size: int | None = None,
        motif_threshold: float | None = None,
        workload: Workload | None = None,
        rng: random.Random | None = None,
        seed: int | None = None,
    ) -> RepartitionReport:
        """Re-place the resident graph under another registered method.

        The resident graph is re-serialised under ``config.ordering``
        (RNG derived from ``seed`` / the config seed) and run through the
        full ingest lifecycle in a scratch session; on success this
        session adopts the new store/partitioner and reports the delta.
        """
        self._require_complete()
        overrides: dict[str, Any] = {}
        if method is not None:
            overrides["method"] = method
        if window_size is not None:
            overrides["window_size"] = window_size
        if motif_threshold is not None:
            overrides["motif_threshold"] = motif_threshold
        new_config = (
            dataclasses.replace(self.config, **overrides)
            if overrides
            else self.config
        )
        old_store = self.store
        old_assignment = old_store.assignment
        before = RepartitionReport(
            method_before=self.config.method,
            method_after=new_config.method,
            total_vertices=old_store.graph.num_vertices,
            moved_vertices=0,
            cut_before=edge_cut_fraction(old_store.graph, old_assignment),
            cut_after=0.0,
            max_load_before=normalised_max_load(old_assignment),
            max_load_after=0.0,
        )
        # The scratch session must not touch this session's WAL
        # directory (nor demand one of its own): durability stays with
        # the adopting session, which re-binds after the swap.
        scratch_config = new_config
        if new_config.durability.enabled:
            from repro.api.config import DurabilityConfig

            scratch_config = dataclasses.replace(
                new_config, durability=DurabilityConfig()
            )
        fresh = Cluster.open(
            scratch_config, workload=workload or self._workload, rng=rng
        )
        stream_rng = rng or self._derived_rng(REPARTITION_SEED_OFFSET, seed)
        events = stream_from_graph(
            old_store.graph, ordering=new_config.ordering, rng=stream_rng
        )
        fresh.ingest(events, graph=old_store.graph)
        new_store = fresh.store
        moved = sum(
            1
            for vertex, partition in old_assignment.assigned().items()
            if new_store.assignment.partition_of(vertex) != partition
        )
        # Adopt the scratch session's state wholesale.
        self.config = new_config
        self._workload = fresh._workload
        self._spec = fresh._spec
        self._partitioner = fresh._partitioner
        self._store = fresh._store
        self._engine_stats = fresh._engine_stats
        self._latency = fresh._latency
        # The adopted store is a different object whose mutation ticks
        # could coincidentally equal the old pool's primed version; the
        # pool must not survive the swap.  Neither can the old durable
        # log (it subscribes to the replaced store): release it and
        # re-bind to the adopted store, checkpointing the swap.
        self.close()
        self._bind_wal(fresh=False)
        return dataclasses.replace(
            before,
            moved_vertices=moved,
            cut_after=edge_cut_fraction(new_store.graph, new_store.assignment),
            max_load_after=normalised_max_load(new_store.assignment),
        )

    # ------------------------------------------------------------------
    # Churn: explicit retraction and live rebalancing
    # ------------------------------------------------------------------
    @_locked
    def retract(
        self,
        *,
        vertices: Sequence[Vertex] = (),
        edges: Sequence[tuple[Vertex, Vertex]] = (),
    ) -> RetractReport:
        """Explicitly delete resident elements from the live cluster.

        ``edges`` are retracted first, then ``vertices`` (each cascading
        over its remaining edges), all validated against the resident
        graph up front -- a retraction either applies whole or raises
        :class:`SessionError` without touching anything.  The removal
        events flow through the same engine/mirror pipeline as ingest,
        so the store, the partitioner's assignment and (when LOOM is
        live) the window/matcher all unwind consistently.  Removals free
        partition capacity; an explicit ``config.capacity`` is
        unaffected.
        """
        self._require_complete()
        store = self.store
        graph = store.graph
        unique_vertices = list(dict.fromkeys(vertices))
        unique_edges: dict[tuple[Vertex, Vertex], None] = {}
        for u, v in edges:
            if not graph.has_edge(u, v):
                raise SessionError(f"edge ({u!r}, {v!r}) is not resident")
            unique_edges[edge_key(u, v)] = None
        missing = [v for v in unique_vertices if not graph.has_vertex(v)]
        if missing:
            raise SessionError(f"vertices not resident: {missing!r}")
        began = time.perf_counter()
        events: list[StreamEvent] = [
            EdgeRemoval(u, v, t)
            for t, (u, v) in enumerate(unique_edges)
        ]
        events.extend(
            VertexRemoval(vertex, len(events) + t)
            for t, vertex in enumerate(unique_vertices)
        )
        edges_before = graph.num_edges
        matcher = getattr(self._partitioner, "matcher", None)
        retracted_before = (
            matcher.stats["retracted"] if matcher is not None else 0
        )
        if self._partitioner is not None:
            engine = StreamingEngine(
                self._partitioner,
                batch_size=self.config.batch_size,
                event_hook=self._mirror_batch,
            )
            engine.run(events)
            self._engine_stats.merge(engine.stats)
        else:
            # Offline/recovered session without a live streaming
            # partitioner: the store is the only state to unwind.
            self._mirror_batch(events)
        total_edges_gone = edges_before - graph.num_edges
        return RetractReport(
            vertices_removed=len(unique_vertices),
            edges_removed=len(unique_edges),
            cascaded_edges=total_edges_gone - len(unique_edges),
            matches_retracted=(
                matcher.stats["retracted"] - retracted_before
                if matcher is not None
                else 0
            ),
            seconds=time.perf_counter() - began,
            resident_vertices=graph.num_vertices,
            resident_edges=graph.num_edges,
        )

    @_locked
    def rebalance(
        self, *, max_moves: int | None = None, min_gain: int = 1
    ) -> RebalanceReport:
        """Live-migrate the worst-placed vertices and report the delta.

        Where :meth:`repartition` re-streams the whole resident graph,
        rebalancing is the incremental counterpart churn calls for:
        score every vertex's best relocation by the edges it would
        localise (``gain = placed neighbours at the target - placed
        neighbours at home``), then greedily migrate the highest-gain
        vertices -- re-checking each gain at move time, respecting
        capacity, at most ``max_moves`` of them (``None`` = every
        candidate, one pass).  Gains below ``min_gain`` stay put.
        Primary copies landing on one of their own replicas absorb it.
        """
        self._require_complete()
        if max_moves is not None and max_moves < 0:
            raise SessionError("max_moves must be >= 0 (or None)")
        if min_gain < 1:
            raise SessionError("min_gain must be >= 1")
        store = self.store
        graph = store.graph
        assignment = store.assignment
        cut_before = edge_cut_fraction(graph, assignment)
        load_before = normalised_max_load(assignment)
        candidates = [
            (gain, repr(vertex), vertex)
            for vertex in graph.vertices()
            for gain in (self._relocation_gain(vertex),)
            if gain is not None and gain[0] >= min_gain
        ]
        candidates.sort(key=lambda entry: (-entry[0][0], entry[1]))
        moved = 0
        replicas_dropped = 0
        mirror = (
            self._partitioner.assignment
            if self._partitioner is not None
            else None
        )
        for _, _, vertex in candidates:
            if max_moves is not None and moved >= max_moves:
                break
            # Earlier migrations shift the landscape: re-score now.
            rescored = self._relocation_gain(vertex)
            if rescored is None or rescored[0] < min_gain:
                continue
            target = rescored[1]
            replicas_dropped += store.move_vertex(vertex, target)
            if mirror is not None:
                mirror.move(vertex, target)
            moved += 1
        return RebalanceReport(
            total_vertices=graph.num_vertices,
            candidates=len(candidates),
            moved_vertices=moved,
            max_moves=max_moves,
            cut_before=cut_before,
            cut_after=edge_cut_fraction(graph, assignment),
            max_load_before=load_before,
            max_load_after=normalised_max_load(assignment),
            replicas_dropped=replicas_dropped,
        )

    def _relocation_gain(self, vertex: Vertex) -> tuple[int, int] | None:
        """Best feasible relocation of ``vertex``: ``(gain, target)``.

        ``gain`` counts the neighbours the move would newly co-locate,
        net of the ones it would strand at home.  ``None`` when no other
        partition has room or the vertex has no neighbours anywhere
        else.  Ties break toward the emptier, lower-indexed partition so
        rebalancing is deterministic.
        """
        store = self.store
        assignment = store.assignment
        home = assignment.partition_of(vertex)
        counts = [0] * assignment.k
        for neighbour in store.graph.neighbours(vertex):
            partition = assignment.partition_of(neighbour)
            if partition is not None:
                counts[partition] += 1
        sizes = assignment.sizes_view()
        capacity = assignment.capacity
        best: tuple[int, int, int] | None = None
        for partition in range(assignment.k):
            if partition == home or sizes[partition] >= capacity:
                continue
            entry = (counts[partition], -sizes[partition], -partition)
            if best is None or entry > best:
                best = entry
        if best is None or best[0] == 0:
            return None
        return best[0] - counts[home], -best[2]

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
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
        target = workload or self._workload
        if target is None:
            raise SessionError(
                "no workload: pass one here or when opening the session"
            )
        self._require_complete()
        resolved_budget = (
            budget if budget is not None else self.config.replication_budget
        )
        replicator = HotspotReplicator(
            self.store, budget=resolved_budget, batch_size=batch_size
        )
        sampler = rng or self._derived_rng(REPLICATION_SEED_OFFSET, seed)
        report = replicator.run(target, executions=executions, rng=sampler)
        # Replicas change locality answers (the store ticks per added
        # copy): stale worker replicas would over-count remote
        # traversals, so the next fan-out re-primes -- by delta replay
        # of the journalled ``r+`` ops in the common case.
        return report

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @_locked
    def snapshot(self) -> dict[str, Any]:
        """JSON-plain snapshot of config + resident graph + assignment.

        Taken at an ingest boundary (the assignment must be complete).
        The document is read-only: nothing loads it back (a session is
        reloaded from its WAL directory by :meth:`Cluster.recover`), and
        it carries no replicas.  The serve ``snapshot`` verb returns it.

        The listings are sorted: the snapshot is a canonical state
        document, so two sessions holding the same state produce the
        same bytes even when their stores iterate in different orders
        (op-replay recovery vs checkpoint restore, say).
        """
        self._require_complete()
        store = self.store
        payload: dict[str, Any] = {
            "schema": SNAPSHOT_SCHEMA,
            "config": self.config.as_dict(),
            "capacity": store.assignment.capacity,
            "graph": {
                "vertices": sorted(
                    (
                        [vertex, store.graph.label(vertex)]
                        for vertex in store.graph.vertices()
                    ),
                    key=lambda pair: _vertex_sort_key(pair[0]),
                ),
                "edges": sorted(
                    ([u, v] for u, v in store.graph.edges()),
                    key=lambda pair: (
                        _vertex_sort_key(pair[0]),
                        _vertex_sort_key(pair[1]),
                    ),
                ),
            },
            "assignment": sorted(
                (
                    [vertex, partition]
                    for vertex, partition in store.assignment.assigned().items()
                ),
                key=lambda pair: _vertex_sort_key(pair[0]),
            ),
        }
        return payload

    def __repr__(self) -> str:
        resident = 0 if self._store is None else self._store.graph.num_vertices
        return (
            f"Session(method={self.config.method!r}, "
            f"k={self.config.partitions}, |V|={resident}, "
            f"complete={self.is_complete})"
        )
