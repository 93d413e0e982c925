"""The metric catalogue: every series the stack emits, declared once.

This module is the single authority on metric names.  Two consumers
read it:

- :func:`build_registry` -- what sessions and the serve daemon
  instantiate;
- :func:`catalog_table` -- the markdown table embedded in
  ``docs/observability.md`` (``python -m repro.obs``
  regenerates it; the doc-sync test pins the two in both directions).

Naming rule: ``snake_case.dotted`` -- at least two dot-separated
``[a-z][a-z0-9_]*`` segments, subsystem first.  The registry raises
``MetricError`` on a name that breaks it or is declared twice.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry


def declare_metrics(registry: MetricsRegistry) -> None:
    """Declare the full catalogue into ``registry``."""
    # -- streaming engine (per-batch push + pull scrape) ---------------
    registry.counter(
        "engine.batches", "Stream batches the engine consumed"
    )
    registry.counter(
        "engine.events", "Stream events the engine consumed"
    )
    registry.counter(
        "engine.seconds", "Cumulative engine wall time", unit="s"
    )
    registry.histogram(
        "engine.batch_seconds", "Per-batch engine latency"
    )
    registry.gauge(
        "engine.window_occupancy", "Peak sliding-window edge occupancy"
    )
    registry.gauge(
        "engine.stage_seconds",
        "Per-stage engine time (stage_timings sessions)",
        labels=("stage",), unit="s",
    )
    # -- motif matcher (pull scrape of the matcher ledgers) ------------
    registry.counter(
        "matcher.events",
        "Stream-matcher ledger events by kind (direct, extended, "
        "rejected, regrown, evicted, retracted)",
        labels=("kind",),
    )
    registry.gauge(
        "matcher.stage_seconds",
        "Per-stage matcher time (match, extend, regrow, evict)",
        labels=("stage",), unit="s",
    )
    # -- partitioner / resident store (pull scrape) --------------------
    registry.counter(
        "partitioner.counters",
        "Method-specific partitioner ledger (LOOM: groups, "
        "group_vertices, singles, split_groups)",
        labels=("key",),
    )
    registry.gauge("store.vertices", "Resident store vertices")
    registry.gauge("store.edges", "Resident store edges")
    # -- query executor (semantic counters from merged results) --------
    registry.counter(
        "executor.queries", "Pattern queries executed to completion"
    )
    registry.counter(
        "executor.answers", "Pattern answers across all queries"
    )
    registry.counter(
        "executor.traversals",
        "Edge traversals by locality",
        labels=("scope",),
    )
    # -- worker pool: coordinator side (push + pull scrape) ------------
    registry.counter("pool.spawns", "Worker pools booted")
    registry.counter(
        "pool.refreshes", "Full-snapshot pool refresh broadcasts"
    )
    registry.counter(
        "pool.delta_refreshes", "Delta-journal pool refresh broadcasts"
    )
    registry.gauge("pool.workers", "Workers in the resident pool")
    # -- worker deltas (merged over the mailbox after each fan-out) ----
    registry.counter(
        "worker.requests", "Execute requests answered by workers"
    )
    registry.counter(
        "worker.answers",
        "Pattern embeddings found worker-side (each answer once per "
        "automorphism of its pattern)",
    )
    registry.counter(
        "worker.traversals",
        "Worker-side edge traversals by locality",
        labels=("scope",),
    )
    registry.counter(
        "worker.cpu_seconds",
        "Worker-side CPU time across execute requests", unit="s",
    )
    # -- resilience (push; backs ResilienceReport) ---------------------
    registry.counter(
        "resilience.worker_respawns",
        "Worker pools respawned after a crash/hang",
    )
    registry.counter(
        "resilience.call_retries",
        "Parallel calls re-attempted on a fresh pool",
    )
    registry.counter(
        "resilience.serial_fallbacks",
        "Parallel calls degraded to in-process serial runs",
    )
    registry.counter(
        "resilience.delta_full_fallbacks",
        "Delta refreshes that fell back to a full snapshot",
    )
    # -- durability (pull scrape of the live + released logs) ----------
    registry.counter(
        "wal.records", "Write-ahead-log records appended"
    )
    registry.counter(
        "wal.checkpoints", "Columnar checkpoints written"
    )
    # -- session facade ------------------------------------------------
    registry.counter(
        "session.commands",
        "Facade commands executed",
        labels=("command",),
    )
    registry.histogram(
        "trace.span_seconds",
        "Span durations from the session/serve tracers",
        labels=("span",),
    )
    # -- serve daemon --------------------------------------------------
    registry.counter(
        "serve.requests",
        "Requests answered, by verb and outcome (ok or error kind)",
        labels=("tenant", "verb", "outcome"),
    )
    registry.histogram(
        "serve.verb_seconds",
        "Per-verb execution latency on the tenant executor",
        labels=("tenant", "verb"),
    )
    registry.counter(
        "serve.rejections",
        "Requests refused before execution (admission, shutdown)",
        labels=("tenant", "reason"),
    )
    registry.counter(
        "serve.deadline_misses",
        "Commands answered `deadline` while still queued",
        labels=("tenant",),
    )
    registry.gauge(
        "serve.queue_depth",
        "Commands admitted but not yet started on the tenant executor",
        labels=("tenant",),
    )
    registry.gauge(
        "serve.inflight",
        "Requests admitted but not yet answered",
        labels=("tenant",),
    )
    registry.counter(
        "serve.slow_commands",
        "Commands slower than the daemon's slow threshold",
        labels=("tenant", "verb"),
    )


def build_registry() -> MetricsRegistry:
    """A fresh registry holding the full catalogue."""
    registry = MetricsRegistry()
    declare_metrics(registry)
    return registry


def metric_names() -> frozenset[str]:
    """Every registered metric name (doc-sync's code-side truth)."""
    return build_registry().names()


def catalog_table() -> str:
    """The metric catalogue as a markdown table.

    Generated from the registry's own metadata so the docs cannot
    drift: ``docs/observability.md`` embeds this output verbatim and
    ``tests/docs/test_doc_sync.py`` re-generates and compares.
    """
    lines = [
        "| metric | kind | labels | meaning |",
        "| --- | --- | --- | --- |",
    ]
    for spec in build_registry().specs():
        labels = ", ".join(f"`{label}`" for label in spec.labels) or "—"
        lines.append(
            f"| `{spec.name}` | {spec.kind} | {labels} | {spec.help} |"
        )
    return "\n".join(lines)
