"""The worker pool: spawn, prime, dispatch, collect, shut down.

A :class:`WorkerPool` hosts ``N`` worker processes, each booted from the
same columnar :class:`~repro.runtime.snapshot.ShardSnapshot` and owning
a disjoint round-robin slice of the partitions.  The pool is the only
place that talks to the workers' pipes: it broadcasts batched requests,
gathers the responses by multiplexed readiness polling under one shared
``time.monotonic()`` deadline (every worker gets the full budget
measured from the broadcast -- a slow peer cannot starve the rest, and
hangs are attributed to exactly the workers whose responses never
arrived), and converts
every failure mode -- a dead process, a broken pipe, a silent worker, an
in-worker exception -- into :class:`WorkerCrashError`, which callers
(the sharded executor) treat as "degrade to in-process execution now".

Snapshot transport: each worker's own pipe.  The pool starts every
process with tiny spawn arguments (worker id, pipe end, partitions,
faults) and only then sends each worker the columnar
:class:`~repro.runtime.snapshot.ShardSnapshot` as its first message.
Under ``spawn``, ``Process.start()`` blocks until the child has read its
arguments, so an image riding in them would boot the workers one after
another; sent down the pipe after every start, it reaches children that
are already importing in parallel.  A send larger than a pipe holds
blocks until the worker reads, so the pool first gathers every worker's
:class:`~repro.runtime.mailbox.Ready` under the deadline: a worker
stalled before its first read fails the spawn within ``timeout``.

Refresh has two speeds: :meth:`refresh` resends the full snapshot
(and skips the broadcast entirely when the version is unchanged), while
:meth:`refresh_delta` ships only the coordinator's mutation log for the
workers to replay in place -- O(changes), the hot path after small
ingests/retractions.  Delta application is all-or-nothing across the
pool: workers reject a mismatched delta without touching state, and any
rejection closes the pool (a half-refreshed pool would break the
byte-identical merge guarantee).

Start methods: ``spawn`` gives every worker a fresh interpreter (the
cross-platform default; slower to boot), ``fork`` clones the parent
(fast, POSIX only).  Both are deterministic here -- workers derive all
state from the shipped snapshot and never read global randomness -- but
``spawn`` is the default because it behaves identically on every
platform and cannot inherit accidental parent state.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as connection_wait
from typing import Sequence

from repro.runtime.mailbox import (
    DeltaRefresh,
    ErrorResponse,
    ExecuteRequest,
    ExecuteResponse,
    Hello,
    QueryPayload,
    Ready,
    RefreshRequest,
    RefreshResponse,
    Shutdown,
)
from repro.obs import MetricsRegistry
from repro.runtime import worker
from repro.runtime.snapshot import ShardSnapshot, owned_partitions

#: Start methods the pool accepts (validated here and by WorkerConfig).
START_METHODS = ("spawn", "fork", "forkserver")


def default_start_method() -> str:
    """The start method the test suite boots pools with:
    ``REPRO_START_METHOD`` when set (CI's spawn x fork matrix), else
    ``fork`` where the platform offers it (cheap pool boot), else
    ``spawn``.  Results are identical either way; only provisioning cost
    differs."""
    return os.environ.get("REPRO_START_METHOD") or (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )


class WorkerCrashError(RuntimeError):
    """A worker died, hung past the deadline, or raised in-process."""


@dataclass
class WorkerHandle:
    """One live worker: its process, pipe end and owned partitions."""

    worker_id: int
    process: multiprocessing.process.BaseProcess
    connection: Connection
    partitions: tuple[int, ...]
    import_seconds: float = 0.0


class WorkerPool:
    """``N`` shard-hosting worker processes behind batched pipes."""

    def __init__(
        self,
        snapshot: ShardSnapshot,
        *,
        workers: int,
        start_method: str = "spawn",
        timeout: float = 60.0,
        fault_plan=None,
        generation: int = 0,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if start_method not in START_METHODS:
            raise ValueError(
                f"unknown start method {start_method!r}; "
                f"choose from {START_METHODS}"
            )
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        # More workers than partitions would only add idle processes:
        # ownership is per-partition, so the pool caps itself at k.
        workers = min(workers, snapshot.k)
        self.timeout = timeout
        self.version = snapshot.version
        #: Which spawn this pool is in its session's lifetime (0 = the
        #: first); fault-plan entries arm only in their own generation.
        self.generation = generation
        self._request_id = 0
        self._closed = False
        #: Full-snapshot and delta refresh broadcasts actually sent
        #: (no-op version-equal calls are skipped and counted nowhere).
        self.refreshes = 0
        self.delta_refreshes = 0
        #: When set, the pool pushes its lifecycle counters here and
        #: merges the flat counter deltas workers attach to their
        #: responses -- only after a *complete* successful gather, so a
        #: crashed round trip contributes nothing and a respawned
        #: pool's retry cannot double-count (the fault-matrix metrics
        #: test pins this).
        self.registry = registry
        context = multiprocessing.get_context(start_method)
        handles: list[WorkerHandle] = []
        try:
            for worker_id in range(workers):
                parent_end, child_end = context.Pipe(duplex=True)
                partitions = owned_partitions(snapshot.k, workers, worker_id)
                faults = (
                    fault_plan.for_worker(worker_id, generation)
                    if fault_plan is not None
                    else ()
                )
                process = context.Process(
                    # Read per spawn: a forked test pool may patch it.
                    target=worker.worker_main,
                    args=(worker_id, child_end, partitions, faults),
                    name=f"repro-shard-worker-{worker_id}",
                    daemon=True,
                )
                process.start()
                child_end.close()
                handles.append(
                    WorkerHandle(worker_id, process, parent_end, partitions)
                )
            self.handles: tuple[WorkerHandle, ...] = tuple(handles)
            # Every process has started; only now does the image travel,
            # as each worker's first message, once each said it reads.
            self._gather(Ready)
            self._broadcast(snapshot)
            hellos = self._gather(Hello)
            for handle, hello in zip(self.handles, hellos, strict=True):
                handle.import_seconds = hello.import_seconds
        except BaseException:
            self.handles = tuple(handles)
            # A failed boot leaves nothing to drain: stop every worker
            # now instead of waiting out close()'s grace on a stalled one.
            for handle in self.handles:
                handle.process.terminate()
            self.close()
            raise
        if self.registry is not None:
            self.registry.inc("pool.spawns")

    # ------------------------------------------------------------------
    @property
    def worker_count(self) -> int:
        return len(self.handles)

    @property
    def alive(self) -> bool:
        return not self._closed and all(
            handle.process.is_alive() for handle in self.handles
        )

    def _receive_ready(self, handle: WorkerHandle):
        """One already-arrived message from ``handle`` (its pipe polled
        ready), converting every failure mode to WorkerCrashError."""
        try:
            message = handle.connection.recv()
        except (EOFError, OSError) as error:
            raise WorkerCrashError(
                f"worker {handle.worker_id} pipe closed "
                f"(exitcode={handle.process.exitcode}): {error}"
            ) from error
        if isinstance(message, ErrorResponse):
            raise WorkerCrashError(
                f"worker {handle.worker_id} raised:\n{message.traceback}"
            )
        return message

    @staticmethod
    def _hung_detail(handles) -> str:
        """Name exactly the workers that exceeded the deadline."""
        return ", ".join(
            f"worker {handle.worker_id} ("
            + (
                "alive but silent"
                if handle.process.is_alive()
                else f"dead, exitcode={handle.process.exitcode}"
            )
            + ")"
            for handle in sorted(handles, key=lambda h: h.worker_id)
        )

    def _gather(self, expect, request_id: int | None = None) -> list:
        """One ``expect``-typed message from every worker, multiplexed
        under a single shared deadline.

        All pending pipes are polled concurrently from one
        ``time.monotonic()`` anchor, so a slow-but-alive worker cannot
        starve the others of budget: every worker has the full
        ``timeout`` measured from the broadcast, and a hang is
        attributed to exactly the workers whose own responses never
        arrived (never to fast peers drained after a slow one).  Even
        with the deadline already spent, arrived responses are drained
        (poll at timeout 0) before anyone is declared hung.  Returns the
        messages in worker-id (= handle) order.
        """
        deadline = time.monotonic() + self.timeout
        pending = {handle.connection: handle for handle in self.handles}
        messages: dict[int, object] = {}
        while pending:
            remaining = deadline - time.monotonic()
            ready = connection_wait(
                list(pending), timeout=max(remaining, 0.0)
            )
            if not ready:
                raise WorkerCrashError(
                    f"no response within {self.timeout:.1f}s from "
                    f"{self._hung_detail(pending.values())}"
                )
            for conn in ready:
                handle = pending.pop(conn)
                message = self._receive_ready(handle)
                if not isinstance(message, expect) or (
                    request_id is not None
                    and message.request_id != request_id
                ):
                    raise WorkerCrashError(
                        f"worker {handle.worker_id} answered out of "
                        f"protocol: {type(message).__name__} "
                        f"(expected {expect.__name__})"
                    )
                messages[handle.worker_id] = message
        return [messages[handle.worker_id] for handle in self.handles]

    def _broadcast(self, message) -> None:
        for handle in self.handles:
            try:
                handle.connection.send(message)
            except OSError as error:
                raise WorkerCrashError(
                    f"worker {handle.worker_id} unreachable "
                    f"(exitcode={handle.process.exitcode}): {error}"
                ) from error

    # ------------------------------------------------------------------
    def execute(
        self,
        queries: Sequence,
        *,
        track_edges: bool = False,
    ) -> list[ExecuteResponse]:
        """Fan one batch of queries out to every worker; gather all
        responses (ordered by worker id).  Raises
        :class:`WorkerCrashError` on any dead/silent/raising worker --
        and **closes the pool** when it does: a failed round trip can
        leave undrained responses in the pipes (a timed-out worker may
        answer late), so the pipes can never be trusted again.  The
        session layer notices ``alive`` went False and respawns.
        """
        if self._closed:
            raise WorkerCrashError("pool is closed")
        self._request_id += 1
        request = ExecuteRequest(
            request_id=self._request_id,
            queries=tuple(QueryPayload.from_query(q) for q in queries),
            track_edges=track_edges,
        )
        try:
            self._broadcast(request)
            responses: list[ExecuteResponse] = self._gather(
                ExecuteResponse, request_id=request.request_id
            )
        except WorkerCrashError:
            self.close()
            raise
        if self.registry is not None:
            for response in responses:
                if response.metrics:
                    self.registry.merge_delta(response.metrics)
        return responses

    def _gather_refresh(self) -> tuple[float, list[RefreshResponse]]:
        """One RefreshResponse per worker; returns (slowest, responses)."""
        responses: list[RefreshResponse] = self._gather(RefreshResponse)
        slowest = 0.0
        for handle, message in zip(self.handles, responses, strict=True):
            handle.import_seconds = message.import_seconds
            slowest = max(slowest, message.import_seconds)
        return slowest, responses

    def refresh(self, snapshot: ShardSnapshot) -> float:
        """Replace every worker's resident shard state in place.

        Skips the broadcast outright when ``snapshot.version`` equals
        the pool's primed version -- re-priming workers that already
        mirror the store would cost a full O(graph) round per worker for
        nothing (the no-op-ingest / failed-retract case).

        Returns the slowest worker's import time (0.0 when skipped).
        Much cheaper than respawning the pool after each
        ingest/retract/rebalance.  Like :meth:`execute`, a failed
        refresh closes the pool -- half the workers may already hold the
        new state, so partial success is indistinguishable from
        corruption.
        """
        if self._closed:
            raise WorkerCrashError("pool is closed")
        if snapshot.version == self.version:
            return 0.0
        try:
            self._broadcast(RefreshRequest(snapshot=snapshot))
            slowest, responses = self._gather_refresh()
            if not all(response.applied for response in responses):
                # Full refreshes are unconditional in the worker; a
                # refusal means the protocol itself broke.
                raise WorkerCrashError(
                    "worker refused a full snapshot refresh"
                )
        except WorkerCrashError:
            self.close()
            raise
        self.refreshes += 1
        if self.registry is not None:
            self.registry.inc("pool.refreshes")
        self.version = snapshot.version
        return slowest

    def refresh_delta(self, delta: DeltaRefresh) -> float:
        """Replay a coordinator mutation log on every worker in place.

        O(changes) instead of O(graph): this is what makes small
        mutations cheap to propagate.  The pool's primed version must be
        the delta's ``from_version``; a version-equal delta
        (``to_version == version``) is skipped like a no-op refresh.

        All-or-nothing: a worker whose resident version does not match
        refuses without touching state, and *any* refusal (or crash)
        closes the pool -- deterministic replicas can only disagree on
        versions if something is already corrupt, and a half-refreshed
        pool would break the byte-identical merge guarantee.
        """
        if self._closed:
            raise WorkerCrashError("pool is closed")
        if delta.to_version == self.version:
            return 0.0
        try:
            if delta.from_version != self.version:
                # Nothing was broadcast, but every WorkerCrashError a
                # refresh raises must leave the pool closed -- the
                # session layer respawns on that signal and would leak
                # live worker processes otherwise.
                raise WorkerCrashError(
                    f"delta covers {delta.from_version}->{delta.to_version} "
                    f"but the pool is primed at {self.version}"
                )
            self._broadcast(RefreshRequest(delta=delta))
            slowest, responses = self._gather_refresh()
            refused = [r.worker_id for r in responses if not r.applied]
            if refused:
                raise WorkerCrashError(
                    f"workers {refused} refused delta "
                    f"{delta.from_version}->{delta.to_version}: resident "
                    "versions diverged"
                )
        except WorkerCrashError:
            self.close()
            raise
        self.delta_refreshes += 1
        if self.registry is not None:
            self.registry.inc("pool.delta_refreshes")
        self.version = delta.to_version
        return slowest

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain and reap every worker (idempotent, never raises)."""
        if self._closed:
            return
        self._closed = True
        for handle in self.handles:
            try:
                handle.connection.send(Shutdown())
            except OSError:
                pass
        for handle in self.handles:
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():  # pragma: no cover - stuck
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            handle.connection.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WorkerPool(workers={self.worker_count}, "
            f"version={self.version}, alive={self.alive})"
        )
