"""The benchmark's catalogue: workloads, end-to-end and per-layer metrics.

One declaration per name.  ``BENCHMARK.json`` at the repo root repeats
the names, units, directions and bounds for the driver; the self-tests
hold the two in step in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

LOWER, HIGHER = "lower", "higher"
#: Seconds one run measures for (the driver passes it back as --seconds).
RUN_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    #: A count made by the program: equal seeds must reproduce it
    #: exactly (``compare.py`` enforces that on top of the bound).
    exact: bool = False


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str


WORKLOADS = (
    Workload(
        "ingest-static",
        "static fraud graph streamed into a fresh LOOM session: window, "
        "matcher, partitioning, engine and store mirror do the timed "
        "work, the executor none",
    ),
    Workload(
        "churn-recover",
        "insert/delete stream under the WAL in a child that is killed, "
        "then Cluster.recover: retraction paths, WAL append/checkpoint, "
        "columnar decode and replay",
    ),
    Workload(
        "serve-query",
        "two closed-loop clients querying a serial LOOM tenant over "
        "TCP: read-only, executor-bound, so ingest and codec changes "
        "predict no change",
    ),
    Workload(
        "serve-mixed-sharded",
        "a reader beside a writer on a 2-worker tenant: every write "
        "bumps the store version, so queries pay delta refresh, "
        "fan-out and merge",
    ),
)

#: Bounds are set from measured run-to-run spread, not from wishes: on
#: the 2-core VM this was built on, a fixed 35 ms pure-Python loop has
#: an interquartile spread of 13 % and drifts by +-20 % over minutes, so
#: every wall-clock metric carries the widest bound the driver allows
#: (a spread must stay under a third of its bound).  The counts are
#: steadier; their spread is what different seeds do to the input.
#: ``README.md`` ("Steadiness") has the measurements.
END_TO_END = (
    EndToEnd("setup_s", "s", LOWER, 0.25),
    EndToEnd("ingest_events_per_s", "1/s", HIGHER, 0.25),
    EndToEnd("ipt_probability", "share", LOWER, 0.20, exact=True),
    EndToEnd("ipt_vs_hash", "ratio", LOWER, 0.20, exact=True),
    EndToEnd("max_load_ratio", "ratio", LOWER, 0.05, exact=True),
    EndToEnd("recover_s", "s", LOWER, 0.25),
    EndToEnd("query_per_s", "1/s", HIGHER, 0.25),
    EndToEnd("query_p50_ms", "ms", LOWER, 0.25),
    EndToEnd("query_p99_ms", "ms", LOWER, 0.25),
    EndToEnd("write_p50_ms", "ms", LOWER, 0.25),
    EndToEnd("write_p95_ms", "ms", LOWER, 0.25),
    EndToEnd("peak_rss_mb", "MB", LOWER, 0.10),
)

#: Which end-to-end metric each of these should move, on which
#: workload, is written down in ``README.md`` ("Layers").
PER_LAYER = (
    # engine / core / partitioning
    PerLayer("engine.loom_run_s", "s", LOWER),
    PerLayer("engine.ldg_run_s", "s", LOWER),
    PerLayer("engine.hash_run_s", "s", LOWER),
    PerLayer("core.loom.stage_s.match", "s", LOWER),
    PerLayer("core.loom.stage_s.extend", "s", LOWER),
    PerLayer("core.loom.stage_s.evict", "s", LOWER),
    PerLayer("core.loom.stage_s.regrow", "s", LOWER),
    PerLayer("core.matcher.events.created", "count", LOWER),
    PerLayer("core.matcher.events.evicted", "count", LOWER),
    PerLayer("core.matcher.events.retracted", "count", LOWER),
    PerLayer("tpstry.build_s", "s", LOWER),
    # cluster.store / api, ingest side
    PerLayer("cluster.store.mirror_s", "s", LOWER),
    PerLayer("api.session.ingest_overhead_s", "s", LOWER),
    # cluster.executor / api, query side
    PerLayer("cluster.executor.execute_ms", "ms", LOWER),
    PerLayer("cluster.executor.traversals_per_query", "count", LOWER),
    PerLayer("cluster.executor.traversals_per_s", "1/s", HIGHER),
    PerLayer("api.session.query_overhead_ms", "ms", LOWER),
    # serve
    PerLayer("serve.protocol.encode_events_ms", "ms", LOWER),
    PerLayer("serve.protocol.decode_events_ms", "ms", LOWER),
    PerLayer("serve.protocol.frame_bytes_per_event", "bytes", LOWER),
    PerLayer("serve.protocol.query_codec_ms", "ms", LOWER),
    PerLayer("serve.daemon.ping_rtt_ms", "ms", LOWER),
    PerLayer("serve.daemon.queue_wait_ms", "ms", LOWER),
    PerLayer("serve.daemon.busy_share", "share", LOWER),
    # runtime.wal / cluster.columnar
    PerLayer("runtime.wal.append_ops_per_s.off", "1/s", HIGHER),
    PerLayer("runtime.wal.append_ops_per_s.async", "1/s", HIGHER),
    PerLayer("runtime.wal.append_ops_per_s.fsync", "1/s", HIGHER),
    PerLayer("runtime.wal.bytes_per_op", "bytes", LOWER),
    PerLayer("runtime.wal.checkpoint_s", "s", LOWER),
    PerLayer("runtime.wal.checkpoint_bytes", "bytes", LOWER),
    PerLayer("runtime.wal.recover_store_s.tail0", "s", LOWER),
    PerLayer("runtime.wal.recover_store_s.tail4096", "s", LOWER),
    PerLayer("runtime.wal.recover_store_s.full", "s", LOWER),
    PerLayer("runtime.wal.replay_ops_per_s", "1/s", HIGHER),
    PerLayer("cluster.columnar.encode_s", "s", LOWER),
    PerLayer("cluster.columnar.decode_s", "s", LOWER),
    PerLayer("cluster.columnar.image_bytes", "bytes", LOWER),
    # runtime.pool / runtime.executor
    PerLayer("runtime.pool.boot_s", "s", LOWER),
    PerLayer("runtime.pool.refresh_full_s", "s", LOWER),
    PerLayer("runtime.pool.refresh_delta_s", "s", LOWER),
    PerLayer("runtime.pool.delta_bytes", "bytes", LOWER),
    PerLayer("runtime.executor.makespan_s", "s", LOWER),
    PerLayer("runtime.executor.cpu_s", "s", LOWER),
    PerLayer("runtime.executor.merge_s", "s", LOWER),
    PerLayer("runtime.worker.cpu_s", "s", LOWER),
    # api / obs, misc
    PerLayer("api.session.snapshot_s", "s", LOWER),
    PerLayer("api.session.rebalance_s", "s", LOWER),
    PerLayer("api.session.retract_per_s", "1/s", HIGHER),
    PerLayer("obs.metrics.scrape_ms", "ms", LOWER),
    # the tracer itself
    PerLayer("bench.trace.overhead_share", "share", LOWER),
    PerLayer("bench.trace.unattributed_share", "share", LOWER),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}
PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


def benchmark_json() -> dict:
    """The document ``BENCHMARK.json`` must equal."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
