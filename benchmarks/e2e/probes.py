"""Per-layer probes: each times one layer's public calls from outside,
on the input the workload itself ran, inside a span named after the
layer.  Only the traced run calls them.

A probe returns ``{per-layer metric name: value}``.  Repeated probes
report the median of ``REPEATS`` calls.
"""

from __future__ import annotations

import gc
import pickle
import statistics
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

from harness import SOCKET_TIMEOUT, Tracer, now, percentile

from repro.cluster.executor import DistributedQueryExecutor
from repro.cluster.store import DistributedGraphStore
from repro.engine import (
    PartitionRequest,
    StreamingEngine,
    as_stream_partitioner,
    default_registry,
)
from repro.runtime import (
    DeltaRefresh,
    DurableLog,
    ShardedExecutor,
    ShardSnapshot,
    WorkerPool,
    WriteAheadLog,
    recover_store,
)
from repro.runtime.wal import list_checkpoints, list_segments
from repro.serve import ServeClient
from repro.serve.protocol import (
    HEADER,
    decode_body,
    encode_frame,
    events_from_wire,
    events_to_wire,
    pattern_from_wire,
    pattern_to_wire,
)
from repro.stream.events import (
    EdgeArrival,
    EdgeRemoval,
    StreamEvent,
    VertexArrival,
)
from repro.tpstry import TPSTryPP
from repro.workload.query import PatternQuery

REPEATS = 3
#: fsync appends are a disk round trip each; a few hundred are enough.
FSYNC_OPS = 300


def _median_seconds(
    tracer: Tracer, name: str, call: Callable[[], Any], repeats: int = REPEATS
) -> float:
    seconds = []
    with tracer.span("bench.gc"):
        gc.collect()
    for trial in range(repeats):
        with tracer.span(name, trial):
            began = now()
            call()
            seconds.append(now() - began)
    return statistics.median(seconds)


# ----------------------------------------------------------------------
# engine / core / partitioning / tpstry
# ----------------------------------------------------------------------
def _engine_run(method, events, hint, workload, config, capacity, options=None):
    request = PartitionRequest(
        graph=hint,
        events=events,
        k=config.partitions,
        capacity=capacity,
        slack=config.slack,
        workload=workload,
        window_size=config.window_size,
        motif_threshold=config.motif_threshold,
        seed=config.seed,
        options=dict(options or {}),
    )
    partitioner = as_stream_partitioner(
        default_registry.resolve(method).build(request),
        k=config.partitions,
        capacity=capacity,
    )
    StreamingEngine(partitioner, batch_size=config.batch_size).run(events)
    return partitioner


def engine(tracer, events, hint, workload, config, capacity) -> dict[str, float]:
    """``StreamingEngine.run`` with no store mirror, per method; LOOM's
    own stage clocks from one extra run with ``stage_timings`` on."""
    layers = {}
    for method in ("loom", "ldg", "hash"):
        layers[f"engine.{method}_run_s"] = _median_seconds(
            tracer,
            f"engine.run.{method}",
            lambda method=method: _engine_run(
                method, events, hint, workload, config, capacity
            ),
        )
    with tracer.span("engine.run.loom.staged"):
        staged = _engine_run(
            "loom", events, hint, workload, config, capacity,
            options={"stage_timings": True},
        )
    for stage, seconds in staged.stage_seconds.items():
        layers[f"core.loom.stage_s.{stage}"] = seconds
    layers["tpstry.build_s"] = _median_seconds(
        tracer, "tpstry.build", lambda: TPSTryPP.from_workload(workload), 9
    )
    return layers


def matcher_events(session) -> dict[str, float]:
    """The matcher's own ledger, read through ``Session.metrics()``."""
    series = session.metrics()["metrics"]["matcher.events"]["series"]
    by_kind = {entry["labels"]["kind"]: entry["value"] for entry in series}
    return {
        "core.matcher.events.created": sum(
            by_kind.get(kind, 0) for kind in ("direct", "extended", "regrown")
        ),
        "core.matcher.events.evicted": by_kind.get("evicted", 0),
        "core.matcher.events.retracted": by_kind.get("retracted", 0),
    }


# ----------------------------------------------------------------------
# cluster.store
# ----------------------------------------------------------------------
def replay_into_store(
    events: Sequence[StreamEvent], placement: dict, k: int, *, journal: bool = False
) -> DistributedGraphStore:
    """The store-side half of an ingest: every graph mutation of the
    stream plus one ``assign_vertex`` per arrival (the final partition
    where the vertex survived, round-robin where churn removed it).
    ``journal`` keeps the op log (``drain_journal``) for the WAL probes."""
    arrivals = sum(isinstance(e, VertexArrival) for e in events)
    store = DistributedGraphStore.incremental(k, max(1, arrivals))
    if journal:
        store.enable_journal(1 << 30)
    placed = 0
    for event in events:
        if isinstance(event, EdgeArrival):
            store.add_edge(event.u, event.v)
        elif isinstance(event, VertexArrival):
            store.add_vertex(event.vertex, event.label)
            store.assign_vertex(
                event.vertex, placement.get(event.vertex, placed % k)
            )
            placed += 1
        elif isinstance(event, EdgeRemoval):
            store.remove_edge(event.u, event.v)
        else:
            store.remove_vertex(event.vertex)
    return store


def mirror(tracer, events, placement, k) -> dict[str, float]:
    return {
        "cluster.store.mirror_s": _median_seconds(
            tracer,
            "cluster.store.mirror",
            lambda: replay_into_store(events, placement, k),
        )
    }


# ----------------------------------------------------------------------
# cluster.executor / api, query side
# ----------------------------------------------------------------------
def executor(tracer, session, schedule: Sequence[PatternQuery]) -> dict[str, float]:
    """Each query through the bare executor and through
    ``Session.query``; the façade's own cost is the median of the
    paired differences."""
    bare = DistributedQueryExecutor(session.store)
    execute_ms, facade_ms, traversals = [], [], 0
    for query in schedule:
        with tracer.span("cluster.executor.execute"):
            began = now()
            execution = bare.execute(query)
            execute_ms.append((now() - began) * 1e3)
        traversals += execution.ledger.total
        with tracer.span("api.session.query"):
            began = now()
            session.query(query)
            facade_ms.append((now() - began) * 1e3)
    return {
        "cluster.executor.execute_ms": percentile(execute_ms, 50),
        "cluster.executor.traversals_per_query": traversals / len(schedule),
        "cluster.executor.traversals_per_s": traversals / (sum(execute_ms) / 1e3),
        "api.session.query_overhead_ms": statistics.median(
            facade - bare for facade, bare in zip(facade_ms, execute_ms, strict=True)
        ),
    }


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def protocol(tracer, frame: Sequence[StreamEvent], query: PatternQuery) -> dict[str, float]:
    """One preload-sized frame and one query through the wire codec."""
    encoded: list[bytes] = []

    def encode():
        encoded[:] = [
            encode_frame(
                {"id": 1, "verb": "ingest", "tenant": "bench",
                 "payload": {"events": events_to_wire(frame)}}
            )
        ]

    def decode():
        body = decode_body(encoded[0][HEADER.size :])
        events_from_wire(body["payload"]["events"])

    def query_codec():
        wire = encode_frame(
            {"id": 1, "verb": "query", "tenant": "bench",
             "payload": {"pattern": pattern_to_wire(query)}}
        )
        pattern_from_wire(decode_body(wire[HEADER.size :])["payload"]["pattern"])

    layers = {
        "serve.protocol.encode_events_ms": 1e3
        * _median_seconds(tracer, "serve.protocol.encode_events", encode, 5),
        "serve.protocol.decode_events_ms": 1e3
        * _median_seconds(tracer, "serve.protocol.decode_events", decode, 5),
        "serve.protocol.query_codec_ms": 1e3
        * _median_seconds(tracer, "serve.protocol.query_codec", query_codec, 200),
    }
    layers["serve.protocol.frame_bytes_per_event"] = len(encoded[0]) / len(frame)
    return layers


def ping(tracer, port: int, count: int = 200) -> dict[str, float]:
    rtt_ms = []
    with ServeClient(port=port, socket_timeout=SOCKET_TIMEOUT) as client:
        for _ in range(count):
            with tracer.span("serve.daemon.ping"):
                began = now()
                client.ping()
                rtt_ms.append((now() - began) * 1e3)
    return {"serve.daemon.ping_rtt_ms": percentile(rtt_ms, 50)}


def verb_seconds(metrics_reply: dict[str, Any]) -> dict[str, tuple[float, int]]:
    """verb -> (sum of seconds, count) from the daemon's own
    ``serve.verb_seconds`` histogram (the ``metrics`` verb's reply)."""
    metric = metrics_reply["snapshot"]["metrics"].get("serve.verb_seconds", {})
    return {
        entry["labels"]["verb"]: (entry["sum"], entry["count"])
        for entry in metric.get("series", [])
    }


def daemon_share(
    before: dict, after: dict, wall: float, client_query_ms: float
) -> dict[str, float]:
    """What the daemon says it spent executing verbs during the timed
    phase, against what the clients saw."""
    spent = {
        verb: (after[verb][0] - before.get(verb, (0.0, 0))[0],
               after[verb][1] - before.get(verb, (0.0, 0))[1])
        for verb in after
    }
    query_seconds, queries = spent.get("query", (0.0, 0))
    served_ms = 1e3 * query_seconds / queries if queries else 0.0
    return {
        "serve.daemon.queue_wait_ms": max(0.0, client_query_ms - served_ms),
        "serve.daemon.busy_share": sum(s for s, _ in spent.values()) / wall,
    }


# ----------------------------------------------------------------------
# runtime.wal / cluster.columnar
# ----------------------------------------------------------------------
def _logged_store(tracer, directory: Path, ops, k: int, checkpoint_at: int | None):
    """Replay ``ops`` into a fresh store bound to a durable log that
    checkpoints once, after ``checkpoint_at`` ops (never when ``None``).
    Returns the seconds that checkpoint took."""
    store = DistributedGraphStore.incremental(k, 1)
    log = DurableLog(directory, sync="async", checkpoint_interval=1 << 60)
    log.bind(store)
    checkpoint_seconds = None
    try:
        for index, op in enumerate(ops, 1):
            store.apply_op(op)
            if index == checkpoint_at:
                with tracer.span("runtime.wal.checkpoint"):
                    began = now()
                    log.checkpoint()
                    checkpoint_seconds = now() - began
    finally:
        log.close()
    return checkpoint_seconds


def wal(tracer, workdir: Path, ops: Sequence[tuple], capacity: int, k: int) -> dict[str, float]:
    """``WriteAheadLog.append`` per sync policy, one checkpoint of the
    whole store, and ``recover_store`` against three log-tail lengths."""
    ops = [("c", capacity), *ops]
    layers = {}
    for sync in ("off", "async", "fsync"):
        batch = ops[:FSYNC_OPS] if sync == "fsync" else ops
        directory = workdir / f"append-{sync}"
        log = WriteAheadLog(directory, sync=sync)
        log.open_segment(0)
        try:
            with tracer.span(f"runtime.wal.append.{sync}"):
                began = now()
                for tick, op in enumerate(batch, 1):
                    log.append(op, tick)
                elapsed = now() - began
        finally:
            log.close()
        layers[f"runtime.wal.append_ops_per_s.{sync}"] = len(batch) / elapsed
        if sync == "async":
            written = sum(p.stat().st_size for p in list_segments(directory))
            layers["runtime.wal.bytes_per_op"] = written / len(batch)

    tails = {"tail0": len(ops), "tail4096": max(1, len(ops) - 4096), "full": None}
    for name, checkpoint_at in tails.items():
        directory = workdir / f"recover-{name}"
        checkpoint_seconds = _logged_store(tracer, directory, ops, k, checkpoint_at)
        if name == "tail0":
            layers["runtime.wal.checkpoint_s"] = checkpoint_seconds
            layers["runtime.wal.checkpoint_bytes"] = sum(
                p.stat().st_size for p in list_checkpoints(directory)
            )
        with tracer.span(f"runtime.wal.recover_store.{name}"):
            began = now()
            _, info = recover_store(directory, partitions=k)
            elapsed = now() - began
        layers[f"runtime.wal.recover_store_s.{name}"] = elapsed
        if name == "full":
            layers["runtime.wal.replay_ops_per_s"] = info.replayed_ops / elapsed
    return layers


def columnar(tracer, store: DistributedGraphStore) -> dict[str, float]:
    image = store.export_columns()
    return {
        "cluster.columnar.encode_s": _median_seconds(
            tracer, "cluster.columnar.encode", store.export_columns, 5
        ),
        "cluster.columnar.decode_s": _median_seconds(
            tracer,
            "cluster.columnar.decode",
            lambda: DistributedGraphStore.import_columns(image),
            5,
        ),
        "cluster.columnar.image_bytes": len(image),
    }


# ----------------------------------------------------------------------
# runtime.pool / runtime.executor
# ----------------------------------------------------------------------
def pool(
    tracer,
    session,
    frames: Sequence[Sequence[StreamEvent]],
    schedule: Sequence[PatternQuery],
    workers: int,
    start_method: str,
) -> dict[str, float]:
    """Boot a pool from ``session``'s store, push one write frame to it
    as a delta and one as a full snapshot, then fan the schedule out.
    ``session`` is mutated (it ingests ``frames``)."""
    store = session.store
    layers = {}
    with tracer.span("runtime.pool.boot"):
        began = now()
        workers_pool = WorkerPool(
            ShardSnapshot.of(store, version=store.mutation_ticks),
            workers=workers,
            start_method=start_method,
            timeout=SOCKET_TIMEOUT,
        )
        layers["runtime.pool.boot_s"] = now() - began
    try:
        store.enable_journal(1 << 20)
        delta_s, full_s = [], []
        for index, frame in enumerate(frames):
            session.ingest(frame)
            if index % 2 == 0:
                with tracer.span("runtime.pool.refresh_delta"):
                    began = now()
                    delta = DeltaRefresh(
                        from_version=workers_pool.version,
                        to_version=store.mutation_ticks,
                        capacity=store.assignment.capacity,
                        ops=store.drain_journal(),
                    )
                    workers_pool.refresh_delta(delta)
                    delta_s.append(now() - began)
                layers["runtime.pool.delta_bytes"] = len(
                    pickle.dumps(delta, protocol=pickle.HIGHEST_PROTOCOL)
                )
            else:
                with tracer.span("runtime.pool.refresh_full"):
                    began = now()
                    workers_pool.refresh(
                        ShardSnapshot.of(store, version=store.mutation_ticks)
                    )
                    full_s.append(now() - began)
            store.restart_journal()
        layers["runtime.pool.refresh_delta_s"] = statistics.median(delta_s)
        layers["runtime.pool.refresh_full_s"] = statistics.median(full_s)

        sharded = ShardedExecutor(store, workers_pool, fallback=False)
        fanouts = []
        for query in schedule:
            with tracer.span("runtime.executor.run"):
                sharded.run([query])
            fanouts.append(sharded.last_fanout)
    finally:
        store.disable_journal()
        workers_pool.close()
    layers.update(
        {
            "runtime.executor.makespan_s": statistics.median(
                f.makespan_seconds for f in fanouts
            ),
            "runtime.executor.cpu_s": statistics.median(
                f.cpu_seconds for f in fanouts
            ),
            "runtime.executor.merge_s": statistics.median(
                max(0.0, f.wall_seconds - f.makespan_seconds) for f in fanouts
            ),
            "runtime.worker.cpu_s": statistics.median(
                sum(f.worker_cpu_seconds) for f in fanouts
            ),
        }
    )
    return layers


# ----------------------------------------------------------------------
# api / obs, misc
# ----------------------------------------------------------------------
def session_misc(tracer, session) -> dict[str, float]:
    """Snapshot, a metrics scrape and a bounded rebalance.  Mutates
    ``session`` (the rebalance moves vertices)."""
    layers = {
        "api.session.snapshot_s": _median_seconds(
            tracer, "api.session.snapshot", session.snapshot, 1
        ),
        "obs.metrics.scrape_ms": 1e3
        * _median_seconds(tracer, "obs.metrics.scrape", session.metrics, 9),
    }
    layers["api.session.rebalance_s"] = _median_seconds(
        tracer, "api.session.rebalance", lambda: session.rebalance(max_moves=50), 1
    )
    return layers


def retract(tracer, session, batches: int = 40, edges_per_call: int = 5) -> dict[str, float]:
    """Edges retracted per second through ``Session.retract``."""
    edges = list(session.graph.edges())[: batches * edges_per_call]
    began = now()
    for start in range(0, len(edges), edges_per_call):
        with tracer.span("api.session.retract"):
            session.retract(edges=edges[start : start + edges_per_call])
    return {"api.session.retract_per_s": len(edges) / (now() - began)}
