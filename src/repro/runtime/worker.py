"""The worker process: one shard host in the multi-process runtime.

``worker_main`` is the spawn/fork entry point.  A worker boots by
materialising its private :class:`~repro.cluster.store.DistributedGraphStore`
replica -- decoding a shared-memory segment in place when handed a
:class:`~repro.runtime.shm.SharedSnapshotRef`, unpickling a
:class:`~repro.runtime.snapshot.ShardSnapshot` otherwise -- announces
itself with a ``Hello``, then serves batched mailbox requests until told
to shut down (or its pipe closes).

Refresh has two speeds.  A full :class:`RefreshRequest.snapshot`
replaces the resident store outright (first boot, delta overflow,
version gaps).  A :class:`RefreshRequest.delta` replays the
coordinator's compact mutation log into the *existing* replica --
O(changes) instead of O(graph).  Replay goes through the store's own
mutators, so a replica that was byte-equivalent at ``from_version`` is
byte-equivalent at ``to_version``: same dict insertion orders, same
label index, same recycled slots -- across every worker, which is what
keeps the workers' seed sets a partition of the serial one.  Each
mutator also forgets only the query-cache entries it changes, so a
replica's caches stay warm across a delta instead of restarting cold.
A delta whose ``from_version`` does not match the resident version is
refused without touching state (``applied=False``); the coordinator
treats that as grounds for a full re-prime.

For an :class:`~repro.runtime.mailbox.ExecuteRequest` the worker runs,
for every query in the batch, the search subtrees rooted at the depth-0
seed candidates homed in its *owned partitions* -- the per-partition
fan-out seam :meth:`~repro.cluster.executor.DistributedQueryExecutor.execute_partial`
exposes.  Ownership is derived locally from the shared snapshot, so the
workers' seed sets partition the serial executor's seed list exactly:
summing their ledgers and embedding counts reproduces a serial
execution bit for bit.

A request that raises is answered with an ``ErrorResponse`` carrying the
traceback; the worker stays alive for the next request.  Only a
``Shutdown`` message or a broken pipe ends the loop.
"""

from __future__ import annotations

import os
import time
import traceback
from itertools import compress
from multiprocessing.connection import Connection

from repro.cluster.executor import DistributedQueryExecutor
from repro.cluster.store import DistributedGraphStore
from repro.runtime.faults import HANG_SECONDS, WorkerFault
from repro.runtime.mailbox import (
    DeltaRefresh,
    ErrorResponse,
    ExecuteRequest,
    ExecuteResponse,
    Hello,
    PartialResult,
    RefreshRequest,
    RefreshResponse,
    Shutdown,
)
from repro.runtime.shm import SharedSnapshotRef, attach_store
from repro.runtime.snapshot import ShardSnapshot

#: Exit code of a scripted boot/kill fault -- distinguishable from a
#: genuine interpreter crash in worker post-mortems.
FAULT_EXIT_CODE = 73


def _boot_store(
    source: ShardSnapshot | SharedSnapshotRef,
) -> tuple[DistributedGraphStore, int]:
    """Materialise a store replica from either snapshot transport."""
    if isinstance(source, SharedSnapshotRef):
        return attach_store(source), source.version
    return source.restore(), source.version


def apply_delta(store: DistributedGraphStore, delta: DeltaRefresh) -> None:
    """Replay a coordinator mutation log into ``store`` in place.

    Every op goes through the store's own mutators
    (:meth:`~repro.cluster.store.DistributedGraphStore.apply_op`), so
    the replica's derived orders evolve exactly as the coordinator's
    did.  An unknown tag raises (protocol mismatch -- never silently
    skip state).
    """
    store.grow_capacity(delta.capacity)
    for op in delta.ops:
        store.apply_op(op)


def execute_request(
    store: DistributedGraphStore,
    owned: frozenset[int],
    request: ExecuteRequest,
    worker_id: int,
) -> ExecuteResponse:
    """Run one batched request against ``store``, owning ``owned`` shards.

    Pure function of its inputs (given a deterministic store), factored
    out of the process loop so tests can drive it in-process.
    ``cpu_seconds`` is process CPU time, not wall time: on a machine
    with fewer cores than workers the wall clock interleaves worker
    timeslices, while CPU time still measures each worker's own share of
    the work (what the scaling experiment's makespan is built from).
    """
    executor = DistributedQueryExecutor(
        store, track_edges=request.track_edges
    )
    partitions_of = store.assignment.partitions_of
    began = time.process_time()
    results: list[PartialResult] = []
    for payload in request.queries:
        query = payload.to_query()
        candidates = executor.seed_candidates(query)
        seeds = list(
            compress(candidates, map(owned.__contains__, partitions_of(candidates)))
        )
        embeddings, ledger = executor.execute_partial(query, seeds)
        results.append(
            PartialResult(
                local=ledger.local,
                remote=ledger.remote,
                embeddings=embeddings,
                edge_counts=(
                    tuple(sorted(ledger.edge_counts.items(), key=repr))
                    if request.track_edges
                    else None
                ),
            )
        )
    cpu_seconds = time.process_time() - began
    return ExecuteResponse(
        request_id=request.request_id,
        worker_id=worker_id,
        results=tuple(results),
        cpu_seconds=cpu_seconds,
        # The counter delta the coordinator merges (repro.obs.catalog).
        # Every seed has one owner, so summed over workers the traversals
        # equal the serial ledger and worker.answers is sum |Aut(q)| * matches(q).
        metrics=(
            ("worker.requests", {}, 1.0),
            ("worker.answers", {}, float(sum(r.embeddings for r in results))),
            ("worker.traversals", {"scope": "local"}, float(sum(r.local for r in results))),
            ("worker.traversals", {"scope": "remote"}, float(sum(r.remote for r in results))),
            ("worker.cpu_seconds", {}, cpu_seconds),
        ),
    )


def _handle_refresh(
    store: DistributedGraphStore,
    resident_version: int,
    message: RefreshRequest,
    worker_id: int,
) -> tuple[DistributedGraphStore, int, RefreshResponse]:
    """Apply one refresh; returns (store, version, response)."""
    began = time.perf_counter()
    delta = message.delta
    if delta is not None:
        if delta.from_version != resident_version:
            return store, resident_version, RefreshResponse(
                worker_id,
                0.0,
                applied=False,
                resident_version=resident_version,
            )
        apply_delta(store, delta)
        version = delta.to_version
    else:
        store, version = _boot_store(message.snapshot)
    return store, version, RefreshResponse(
        worker_id,
        time.perf_counter() - began,
        applied=True,
        resident_version=version,
    )


def _boot_fault(
    faults: tuple[WorkerFault, ...], source: ShardSnapshot | SharedSnapshotRef
) -> None:
    """Fire any scripted boot-time fault before the handshake."""
    for fault in faults:
        if fault.kind == "shm_attach" and isinstance(
            source, SharedSnapshotRef
        ):
            # Stand-in for a failed shm_open/mmap: die before Hello so
            # the parent's handshake times out / sees a dead pipe.
            os._exit(FAULT_EXIT_CODE)


def _message_fault(
    faults: tuple[WorkerFault, ...],
    fired: set[int],
    message_count: int,
) -> WorkerFault | None:
    """The scripted fault (if any) due at this request, at most once."""
    for index, fault in enumerate(faults):
        if index in fired or fault.kind == "shm_attach":
            continue
        if fault.at_message == message_count:
            fired.add(index)
            return fault
    return None


def worker_main(
    worker_id: int,
    connection: Connection,
    source: ShardSnapshot | SharedSnapshotRef,
    partitions: tuple[int, ...],
    faults: tuple[WorkerFault, ...] = (),
) -> None:
    """Process entry point: materialise the shard, serve the mailbox.

    ``source`` is a :class:`~repro.runtime.snapshot.ShardSnapshot`
    (inline payload) or a :class:`~repro.runtime.shm.SharedSnapshotRef`
    (attach-and-decode).  ``faults`` is this worker's slice of the
    session's :class:`~repro.runtime.faults.FaultPlan` (empty outside
    fault-injection tests).
    """
    _boot_fault(faults, source)
    began = time.perf_counter()
    store, resident_version = _boot_store(source)
    owned = frozenset(partitions)
    message_count = 0
    fired: set[int] = set()
    try:
        connection.send(
            Hello(worker_id, partitions, time.perf_counter() - began)
        )
        while True:
            try:
                message = connection.recv()
            except (EOFError, OSError):
                break
            if isinstance(message, Shutdown):
                break
            message_count += 1
            fault = _message_fault(faults, fired, message_count)
            if fault is not None:
                if fault.kind == "kill":
                    os._exit(FAULT_EXIT_CODE)
                elif fault.kind == "hang":
                    # Outlive the parent's request timeout; any late
                    # reply after the nap lands in a closed pipe (the
                    # undrained-response poison the pool guards
                    # against by never reusing a timed-out mailbox).
                    time.sleep(fault.delay or HANG_SECONDS)
                elif fault.kind == "corrupt":
                    connection.send(("corrupt-payload", worker_id))
                    continue
                elif fault.kind == "slow":
                    time.sleep(fault.delay)
            try:
                if isinstance(message, RefreshRequest):
                    store, resident_version, response = _handle_refresh(
                        store, resident_version, message, worker_id
                    )
                    connection.send(response)
                elif isinstance(message, ExecuteRequest):
                    connection.send(
                        execute_request(store, owned, message, worker_id)
                    )
                else:
                    connection.send(
                        ErrorResponse(
                            worker_id, f"unknown message {type(message)!r}"
                        )
                    )
            except Exception:
                connection.send(
                    ErrorResponse(worker_id, traceback.format_exc())
                )
    except (BrokenPipeError, OSError):  # pragma: no cover - parent died
        pass
    finally:
        connection.close()
