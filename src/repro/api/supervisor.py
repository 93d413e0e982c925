"""The session's worker-pool supervisor, which also executes its queries.

:class:`PoolSupervisor` owns the shard-hosting
:class:`~repro.runtime.pool.WorkerPool`: when to spawn one, how to bring
it up to the store's version (a journalled delta when the journal covers
the gap, a full columnar image otherwise), and what a worker crash costs
a call -- retries on fresh pools, then in-process serial execution or
the error, as the :class:`~repro.api.config.WorkerConfig` says.
"""

from __future__ import annotations

import random
import time
import warnings
from collections.abc import Callable
from typing import TypeVar

from repro.api.config import WorkerConfig
from repro.api.results import ResilienceReport
from repro.cluster.executor import DistributedQueryExecutor, QueryExecution
from repro.cluster.store import DistributedGraphStore
from repro.exceptions import SessionError
from repro.obs import MetricsRegistry
from repro.runtime.executor import ShardedExecutor
from repro.runtime.mailbox import DeltaRefresh
from repro.runtime.pool import WorkerCrashError, WorkerPool
from repro.runtime.snapshot import ShardSnapshot
from repro.workload.query import PatternQuery

T = TypeVar("T")


class PoolSupervisor:
    """One session's worker pool, its spawn generation and retry policy.

    Not thread-safe: the session calls it only under its command lock,
    except :meth:`close`, which ``Session.close`` calls lock-free under
    its own close mutex.
    """

    def __init__(
        self,
        worker: WorkerConfig,
        *,
        partitions: int,
        registry: MetricsRegistry,
        seed: int,
    ) -> None:
        self._worker = worker
        self._partitions = partitions
        self._registry = registry
        self.pool: WorkerPool | None = None
        #: Pools spawned so far (the fault plan arms per generation).
        self._generation = 0
        self._retry_rng = random.Random(seed)

    def resilience(self, wal_records: int, wal_checkpoints: int) -> ResilienceReport:
        """The registry's cumulative degradation counters, plus WAL totals."""
        value = self._registry.value
        return ResilienceReport(
            worker_respawns=int(value("resilience.worker_respawns")),
            call_retries=int(value("resilience.call_retries")),
            serial_fallbacks=int(value("resilience.serial_fallbacks")),
            delta_full_fallbacks=int(value("resilience.delta_full_fallbacks")),
            wal_records=wal_records,
            wal_checkpoints=wal_checkpoints,
        )

    def close(self) -> None:
        """Reap the live pool, if any (idempotent)."""
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.close()

    def _call(
        self,
        store: DistributedGraphStore,
        workers: int,
        call: Callable[[WorkerPool], T],
    ) -> T | None:
        """``call(pool)`` on a pool mirroring ``store``.

        A worker crash/hang/timeout in provisioning or in the call
        closes the pool; the call is retried up to ``max_retries`` times
        with jittered exponential backoff, on a fresh pool each time (a
        scripted fault never re-arms across generations).  An exhausted
        budget returns ``None`` (= run in-process) with a warning when
        ``fallback_serial`` is on, and raises otherwise.
        """
        worker = self._worker
        attempts = 0
        while True:
            try:
                return call(self._ensure_pool(store, workers))
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

    def _resolve(self, workers: int | None) -> int:
        """``workers`` as asked, ``worker.count`` when ``None``."""
        if workers is None:
            return self._worker.count
        if workers < 1:
            raise SessionError("workers must be >= 1 (or None)")
        return workers

    def execute(
        self,
        store: DistributedGraphStore,
        queries: list[PatternQuery],
        workers: int | None,
        track_edges: bool,
    ) -> list[QueryExecution]:
        """Execute ``queries`` in one batch -- fanned out across the pool
        under the retry policy for ``workers > 1``, in-process when
        serial or degraded -- and count the merged answers."""
        results: list[QueryExecution] | None = None
        workers = self._resolve(workers)
        if workers > 1:
            results = self._call(
                store,
                workers,
                lambda pool: ShardedExecutor(
                    store,
                    pool,
                    track_edges=track_edges,
                    # The retry loop owns crash policy; the executor
                    # must surface the crash, not degrade.
                    fallback=False,
                ).run(queries),
            )
        if results is None:
            serial = DistributedQueryExecutor(store, track_edges=track_edges)
            results = [serial.execute(query) for query in queries]
        # Counted off the merged records, identical serial vs parallel.
        registry = self._registry
        registry.inc("executor.queries", len(results))
        answers = local = remote = 0
        for execution in results:
            answers += execution.matches
            local += execution.ledger.local
            remote += execution.ledger.remote
        registry.inc("executor.answers", answers)
        registry.inc("executor.traversals", local, scope="local")
        registry.inc("executor.traversals", remote, scope="remote")
        return results

    def prime(
        self, store: DistributedGraphStore, workers: int | None
    ) -> tuple[int, float]:
        """Bring a pool up to a freshly ingested ``store``; returns its
        size and slowest shard import (``(1, 0.0)`` serially)."""
        workers = self._resolve(workers)
        if workers < 2 or not store.is_complete:
            return 1, 0.0
        primed = self._call(
            store,
            workers,
            lambda pool: (
                pool.worker_count,
                max((h.import_seconds for h in pool.handles), default=0.0),
            ),
        )
        return primed or (1, 0.0)

    def _backoff(self, attempt: int) -> None:
        """Sleep before retry ``attempt`` (1-based): exponential base,
        jittered from the supervisor's own seeded RNG (reproducible)."""
        base = self._worker.retry_backoff
        if base <= 0:
            return
        delay = base * (2 ** (attempt - 1))
        time.sleep(delay * (0.5 + self._retry_rng.random()))

    def _ensure_pool(
        self, store: DistributedGraphStore, workers: int
    ) -> WorkerPool:
        """A primed pool of ``workers`` processes mirroring ``store``.

        Reuses the live pool when the size matches, replaying the
        store's journalled delta when its version moved (a full columnar
        broadcast when no valid delta covers the gap).  A size change, a
        dead pool or a failed refresh (which closes it) respawns.
        """
        worker = self._worker
        requested = min(workers, self._partitions)
        pool = self.pool
        if pool is not None and (
            not pool.alive or pool.worker_count != requested
        ):
            pool.close()
            pool = self.pool = None
        if pool is not None and pool.version != store.mutation_ticks:
            delta = self._pending_delta(store, pool)
            if delta is None:
                self._registry.inc("resilience.delta_full_fallbacks")
            try:
                if delta is not None:
                    pool.refresh_delta(delta)
                else:
                    pool.refresh(
                        ShardSnapshot.of(store, version=store.mutation_ticks)
                    )
                store.restart_journal()
            except WorkerCrashError:
                # refresh closed the pool; fall through to a respawn
                # (spawn failures propagate to the caller's policy).
                pool = self.pool = None
        if pool is None:
            snapshot = ShardSnapshot.of(store, version=store.mutation_ticks)
            # Each spawn consumes a generation even when it fails: a
            # scripted boot fault must not re-arm for the respawn that
            # replaces its victim.
            generation = self._generation
            self._generation += 1
            pool = WorkerPool(
                snapshot,
                workers=requested,
                start_method=worker.start_method,
                timeout=worker.request_timeout,
                fault_plan=worker.fault_plan,
                generation=generation,
                registry=self._registry,
            )
            self.pool = pool
            if generation > 0:
                self._registry.inc("resilience.worker_respawns")
            # The pool now mirrors the store exactly: start (or restart)
            # the journal so the next refresh can ship a delta.
            store.enable_journal(worker.max_delta_events)
        return pool

    @staticmethod
    def _pending_delta(
        store: DistributedGraphStore, pool: WorkerPool
    ) -> DeltaRefresh | None:
        """The journalled mutation log bridging ``pool.version`` to the
        store's current version, or ``None`` when only a full snapshot
        can close the gap (journal overflow, wholesale assignment
        adoption, or a version mismatch)."""
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
