"""The four workloads.

Each takes a ``Context`` and fills its ``Result``: every end-to-end
metric (see ``README.md`` for which ones a workload owns and which it
only echoes), the correctness checks, and -- in a traced run -- the
per-layer numbers of the layers it exercises.  Only the public surface
is used: ``repro.api``, ``repro.serve`` and each layer's public
functions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import pickle
import signal
import statistics
import subprocess
import sys
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import hostspeed
import probes
from harness import (
    GENERATOR_THREADS,
    HERE,
    SETUP_REPEATS,
    SOCKET_TIMEOUT,
    Daemon,
    Result,
    Scaled,
    Tracer,
    assignment_digest,
    child_env,
    Measured,
    from_count,
    from_trials,
    latency_percentile,
    now,
    percentile,
    rate_per_second,
    run_threads,
    scratch_dir,
    self_peak_rss_mb,
)
from inputs import (
    churn_input,
    fraud_input,
    input_size,
    query_schedule,
    stream_digest,
)
from sut import K, SHARD_WORKERS, START_METHOD, TENANT, cluster_config, serve_config

from repro.api import Cluster
from repro.datasets import churn_workload, fraud_workload
from repro.partitioning.base import default_capacity
from repro.serve import ServeClient
from repro.serve.protocol import ServeError
from repro.stream.events import EdgeArrival, StreamEvent, VertexArrival
from repro.stream.sources import replay
from repro.workload.workloads import Workload

#: Trials every trial-based workload runs even if ``--seconds`` is short.
MIN_TRIALS = 3
#: The two ingest workloads spend this share of ``--seconds`` timing the
#: distinct queries in-process (at least ``QUERY_REPEATS`` rounds of
#: them), normalised to this much work; trials get the rest.
QUERY_SHARE = 0.25
QUERY_REPEATS = 5
#: ... with a host-speed burst on either side of this many seconds of them.
QUERY_BLOCK_SECONDS = 0.25
REFERENCE_TRAVERSALS = 10_000
#: Queries the executor probes run.
PROBE_QUERIES = 24
WARMUP_QUERIES = 20
#: Ingest frames a preload is cut into, whatever its size.
PRELOAD_FRAMES = 7
#: Seconds between the host-speed bursts made beside a serve set-up.
SETUP_BURST_INTERVAL = 0.1
WRITE_FRAME = 50
RETRACT_EVERY = 10
RETRACT_EDGES = 5
#: Longer than any closed loop can get through in one run.
SCHEDULE_LENGTH = 6000

Answer = tuple[int, int, int]


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    quick: bool
    tracer: Tracer
    result: Result
    #: Unwound when the run ends, however it ends: daemons are reaped,
    #: sessions closed, scratch directories removed.
    stack: contextlib.ExitStack

    @property
    def traced(self) -> bool:
        return self.tracer.enabled

    @property
    def setup_repeats(self) -> int:
        return 1 if self.traced else SETUP_REPEATS[self.workload]

    def span(self, name: str, trial: int | None = None):
        return self.tracer.span(name, trial)

    def burst(self, make: Callable[[], float] = hostspeed.burst) -> float:
        """A host-speed burst under a span of its own."""
        with self.span("bench.hostspeed"):
            return make()

    def scaled(self) -> Scaled:
        return Scaled(self.burst)

    def collect_garbage(self) -> None:
        """Before every timed trial, so no trial pays for the last one."""
        with self.span("bench.gc"):
            gc.collect()


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def answer(reply: Any) -> Answer:
    """(matches, local, remote) of a ``QueryResult`` or its wire dict."""
    if isinstance(reply, dict):
        return (
            reply["matches"], reply["local_traversals"], reply["remote_traversals"]
        )
    return reply.matches, reply.local_traversals, reply.remote_traversals


def distinct_answers(query: Callable[[Any], Any], workload: Workload) -> dict[str, Answer]:
    return {q.name: answer(query(q)) for q in workload}


def ipt_probability(workload: Workload, answers: dict[str, Answer]) -> float:
    """P(a traversal of a random workload query crosses partitions):
    the frequency-weighted remote share over one execution of each
    query, i.e. what ``WorkloadReport.remote_probability`` samples."""
    remote = total = 0.0
    for query in workload:
        _, local, crossed = answers[query.name]
        remote += query.frequency * crossed
        total += query.frequency * (local + crossed)
    return remote / total


def quality_metrics(
    result: Result,
    workload: Workload,
    loom: dict[str, Answer],
    hashed: dict[str, Answer],
    max_load: float,
) -> None:
    """The paper's metric on the LOOM placement, against ``hash`` on the
    same stream.  Match counts do not depend on placement, so the two
    must agree on them."""
    for query in workload:
        result.check(
            loom[query.name][0] == hashed[query.name][0],
            f"{query.name}: {loom[query.name][0]} matches under loom, "
            f"{hashed[query.name][0]} under hash",
        )
    ipt = ipt_probability(workload, loom)
    ipt_hash = ipt_probability(workload, hashed)
    result.notes["ipt_probability_hash"] = ipt_hash
    result.metrics["ipt_probability"] = from_count(ipt, "share")
    result.metrics["ipt_vs_hash"] = from_count(
        ipt / ipt_hash, "ratio", f"{ipt:.6f} / {ipt_hash:.6f}"
    )
    result.metrics["max_load_ratio"] = from_count(max_load, "ratio")


def _profile(latencies_ms: Sequence[float]) -> dict[str, float]:
    """The shape of a latency sample, for the record (not a metric)."""
    points = {f"p{pct}": percentile(latencies_ms, pct) for pct in (50, 90, 95, 99)}
    return {**points, "max": max(latencies_ms), "n": len(latencies_ms)}


def query_metrics(
    result: Result,
    latencies_ms: Sequence[float],
    completions: Sequence[float],
    began: float,
    ended: float,
    how: str,
    scale: float,
) -> None:
    result.notes["query_latency_ms"] = _profile(latencies_ms)
    result.metrics["query_per_s"] = rate_per_second(
        completions, began, ended, how, scale=scale
    )
    for name, pct in (("query_p50_ms", 50), ("query_p99_ms", 99)):
        result.metrics[name] = latency_percentile(latencies_ms, pct, how, scale)


def write_metrics(
    result: Result,
    latencies_ms: Sequence[float],
    how: str,
    scale: float = 1.0,
    raw_ms: Sequence[float] | None = None,
) -> None:
    result.notes["write_latency_ms"] = _profile(raw_ms or latencies_ms)
    for name, pct in (("write_p50_ms", 50), ("write_p95_ms", 95)):
        result.metrics[name] = latency_percentile(latencies_ms, pct, how, scale, raw_ms)


def timed_queries(ctx: Context, session, workload: Workload) -> dict[str, Answer]:
    """In-process ``Session.query``: the read side of the two workloads
    whose timed phase is all writes.  Returns each query's answer.

    The distinct queries take turns for ``QUERY_SHARE`` of the run (at
    least ``QUERY_REPEATS`` rounds), in blocks with a light host-speed
    burst on either side, and each stands at its median execution, at
    nominal host speed, *per ``REFERENCE_TRAVERSALS`` traversals*.
    ``query_p50_ms`` is the most frequent query's cost (it is about half
    of either mix), ``query_p99_ms`` the costliest query's,
    ``query_per_s`` the inverse of the frequency-weighted mean.

    All three departures from timing a sampled mix are for steadiness.
    Percentiles of a mix of three or four fixed costs sit on the edge
    between two patterns (the churn mix is 1/2 : 1/3 : 1/6) and flip
    from run to run.  How much work a pattern finds in a
    preferential-attachment graph is a lottery on which label its hubs
    drew -- ``bcd`` traverses 13 000 to 25 000 edges over eight seeds --
    while the cost of a traversal, which is what the program controls,
    is not.  And the shared host this runs on is by turns a quarter
    faster and slower, for seconds at a time: taking turns spreads
    every query over the whole window, and the median of a window of
    several seconds moved by 5 % where the fastest execution moved by
    19 % (ten windows of 20 s, one query).
    """
    result = ctx.result
    queries = list(workload)
    samples: dict[str, list[float]] = {q.name: [] for q in queries}
    raw: dict[str, list[float]] = {q.name: [] for q in queries}
    answers: dict[str, Answer] = {}
    rounds = 0
    deadline = now() + ctx.seconds * QUERY_SHARE
    before = ctx.burst(hostspeed.light_burst)
    while rounds < QUERY_REPEATS or now() < deadline:
        block: dict[str, list[float]] = {q.name: [] for q in queries}
        block_ends = now() + QUERY_BLOCK_SECONDS
        while True:
            for query in queries:
                with ctx.span("api.session.query"):
                    started = now()
                    reply = session.query(query)
                    block[query.name].append((now() - started) * 1e3)
                first = answers.setdefault(query.name, answer(reply))
                result.check(
                    answer(reply) == first,
                    f"{query.name}: {answer(reply)} after {first} on an "
                    f"unchanged session",
                )
            rounds += 1
            if now() >= block_ends:
                break
        after = ctx.burst(hostspeed.light_burst)
        scale = hostspeed.factor(
            before, after, nominal=hostspeed.NOMINAL_LIGHT_MS
        )
        before = after
        for name, taken in block.items():
            raw[name].extend(taken)
            samples[name].extend(ms * scale for ms in taken)
    most_frequent = max(workload, key=lambda q: q.frequency)

    def of_the_mix(taken: dict[str, list[float]]) -> tuple[float, float, float]:
        """(query_per_s, query_p50_ms, query_p99_ms) from per-query samples."""
        cost_ms = {
            q.name: statistics.median(taken[q.name])
            * REFERENCE_TRAVERSALS / sum(answers[q.name][1:])
            for q in queries
        }
        mean_ms = sum(workload.probability(q) * cost_ms[q.name] for q in queries)
        return 1e3 / mean_ms, cost_ms[most_frequent.name], max(cost_ms.values())

    for query in queries:
        result.check(
            sum(answers[query.name][1:]) > 0, f"{query.name}: no traversal made"
        )
    how = (
        f"in-process Session.query on the final placement, median execution "
        f"per {REFERENCE_TRAVERSALS} traversals"
    )
    for name, unit, which, value, read in zip(
        ("query_per_s", "query_p50_ms", "query_p99_ms"),
        ("1/s", "ms", "ms"),
        ("frequency-weighted mean", most_frequent.name, "the costliest query"),
        of_the_mix(samples),
        of_the_mix(raw),
        strict=True,
    ):
        result.metrics[name] = Measured(
            value, unit, value, value, rounds * len(queries), f"{how}: {which}", read
        )
    return answers


def session_digest(session) -> str:
    return assignment_digest(session.assignment.assigned().items())


# ----------------------------------------------------------------------
# ingest-static
# ----------------------------------------------------------------------
def ingest_static(ctx: Context) -> None:
    result = ctx.result
    workload = fraud_workload()
    size = input_size(ctx.workload, ctx.quick)
    setups = ctx.scaled()
    for repeat in range(ctx.setup_repeats):
        with setups.timing(), ctx.span("bench.generate_input", repeat):
            graph, events = fraud_input(ctx.seed, size)
    result.input_digest = stream_digest(events)
    result.notes["input"] = {
        "vertices": graph.num_vertices, "edges": graph.num_edges,
        "events": len(events),
    }
    config = cluster_config(ctx.seed)
    ingest_seconds: list[float] = []

    def fresh_ingest(method_config, trial=None):
        # Serial, non-durable sessions own no process or file, so a
        # superseded one is simply dropped.
        with ctx.span("api.cluster.open", trial):
            session = Cluster.open(method_config, workload=workload)
        with ctx.span("api.session.ingest", trial):
            started = now()
            session.ingest(events, graph=graph)
            ingest_seconds.append(now() - started)
        return session

    fresh_ingest(config)  # warm-up, discarded
    ingest_seconds.clear()
    trials = ctx.scaled()
    session = None
    deadline = now() + ctx.seconds * (1 - QUERY_SHARE)
    with ctx.span("bench.timed"):
        while len(trials) < MIN_TRIALS or now() < deadline:
            trial = len(trials)
            session = None  # the previous trial's state goes before timing
            ctx.collect_garbage()
            with trials.timing():
                session = fresh_ingest(config, trial)
            with ctx.span("bench.verify", trial):
                result.see_digest(session_digest(session), f"trial {trial}")
                result.check(
                    session.is_complete
                    and session.graph.num_vertices == graph.num_vertices
                    and session.graph.num_edges == graph.num_edges,
                    f"trial {trial}: resident graph differs from the input",
                )
    peak_rss = self_peak_rss_mb()

    with ctx.span("bench.quality"):
        loom_answers = timed_queries(ctx, session, workload)
        hashed = fresh_ingest(dataclasses.replace(config, method="hash"))
        quality_metrics(
            result, workload, loom_answers,
            distinct_answers(hashed.query, workload),
            session.stats().max_load,
        )

    how = "fresh Cluster.open + Session.ingest per trial"
    result.metrics["setup_s"] = setups.measured("s", "input generation")
    result.metrics["ingest_events_per_s"] = trials.measured(
        "1/s", how, lambda seconds: len(events) / seconds
    )
    result.metrics["recover_s"] = trials.measured(
        "s", "no WAL: state is rebuilt by re-ingesting; echoes " + how
    )
    write_metrics(
        result, [s * 1e3 for s in trials.values],
        "one Session.ingest call per trial", raw_ms=[s * 1e3 for s in trials.raw],
    )
    result.metrics["peak_rss_mb"] = from_count(
        peak_rss, "MB", "this process after the timed phase (holds the input too)"
    )
    result.notes["host_speed"] = trials.note()

    if ctx.traced:
        layers = result.layers
        placement = session.assignment.assigned()
        capacity = default_capacity(graph.num_vertices, K, config.slack)
        layers.update(
            probes.engine(ctx.tracer, events, graph, workload, config, capacity)
        )
        layers.update(probes.mirror(ctx.tracer, events, placement, K))
        layers["api.session.ingest_overhead_s"] = (
            statistics.median(ingest_seconds[: len(trials)])
            - layers["engine.loom_run_s"]
            - layers["cluster.store.mirror_s"]
        )
        layers.update(probes.matcher_events(session))
        layers.update(probes.session_misc(ctx.tracer, session))


# ----------------------------------------------------------------------
# churn-recover
# ----------------------------------------------------------------------
def _killed_ingest(events_path, wal_dir, seed: int) -> dict[str, Any] | None:
    """Run the child until it SIGKILLs itself; its report, or ``None``
    if it died any other way."""
    done = subprocess.run(
        [sys.executable, str(HERE / "child_ingest.py"), str(events_path),
         str(wal_dir), str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    if done.returncode != -signal.SIGKILL or not done.stdout.strip():
        sys.stderr.write(done.stderr[-2000:])
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def churn_recover(ctx: Context) -> None:
    result = ctx.result
    workload = churn_workload()
    size = input_size(ctx.workload, ctx.quick)
    workdir = scratch_dir(ctx.stack, "churn-")
    events_path = workdir / "events.pickle"
    setups = ctx.scaled()
    for repeat in range(ctx.setup_repeats):
        with setups.timing(), ctx.span("bench.generate_input", repeat):
            events = churn_input(ctx.seed, size)
            events_path.write_bytes(pickle.dumps(events))
    result.input_digest = stream_digest(events)
    arrivals = sum(isinstance(e, VertexArrival) for e in events)
    result.notes["input"] = {
        "events": len(events), "vertex_arrivals": arrivals,
        "removals": sum(
            not isinstance(e, (VertexArrival, EdgeArrival)) for e in events
        ),
    }
    config = cluster_config(ctx.seed)

    # The uninterrupted run every recovered store must equal.
    ctx.collect_garbage()
    reference = Cluster.open(config, workload=workload)
    ctx.stack.callback(reference.close)
    with ctx.span("api.session.ingest"):
        began = now()
        reference.ingest(events)
        reference_ingest_seconds = now() - began
    reference_image = reference.store.export_columns()
    result.see_digest(session_digest(reference), "uninterrupted reference")

    # A recovered session keeps appending to its WAL directory until it
    # is closed; only the newest one stays open.
    open_sessions: list = []
    ctx.stack.callback(lambda: [stale.close() for stale in open_sessions])

    # The child times its own ingest; the bursts around it are made
    # here, where their working set does not count as its memory.
    ingests, recoveries = ctx.scaled(), ctx.scaled()

    def trial(index: int):
        wal_dir = workdir / f"wal-{index}"
        before = ctx.burst()
        with ctx.span("bench.child_ingest", index):
            report = _killed_ingest(events_path, wal_dir, ctx.seed)
        after = ctx.burst()
        if not result.check(report is not None, f"trial {index}: child not killed"):
            return None
        for stale in open_sessions:
            stale.close()
        ctx.collect_garbage()
        if index >= 0:
            ingests.add(report["seconds"], before, after)
        with (recoveries if index >= 0 else ctx.scaled()).timing():
            with ctx.span("api.cluster.recover", index):
                recovered = Cluster.recover(wal_dir, workload=workload)
        open_sessions[:] = [recovered]
        with ctx.span("bench.verify", index):
            result.see_digest(report["digest"], f"trial {index} child")
            result.check(
                recovered.store.export_columns() == reference_image,
                f"trial {index}: recovered columns differ from the reference",
            )
        return report, recovered

    trial(-1)  # warm-up, discarded
    reports: list[dict[str, Any]] = []
    recovered = None
    deadline = now() + ctx.seconds * (1 - QUERY_SHARE)
    with ctx.span("bench.timed"):
        while len(reports) < MIN_TRIALS or now() < deadline:
            outcome = trial(len(reports))
            if outcome is None:
                if result.failed >= MIN_TRIALS:
                    raise RuntimeError("the killed child keeps failing")
                continue
            reports.append(outcome[0])
            recovered = outcome[1]

    with ctx.span("bench.quality"):
        hashed = Cluster.open(
            dataclasses.replace(config, method="hash"), workload=workload
        )
        ctx.stack.callback(hashed.close)
        hashed.ingest(events)
        quality_metrics(
            result, workload,
            timed_queries(ctx, recovered, workload),
            distinct_answers(hashed.query, workload),
            recovered.stats().max_load,
        )

    how = "child: Cluster.open + Session.ingest under the WAL (sync=async)"
    result.metrics["setup_s"] = setups.measured(
        "s", "stream generation + hand-off file"
    )
    result.metrics["ingest_events_per_s"] = ingests.measured(
        "1/s", how, lambda seconds: len(events) / seconds
    )
    result.metrics["recover_s"] = recoveries.measured(
        "s", "Cluster.recover of the killed child's WAL directory"
    )
    write_metrics(
        result, [s * 1e3 for s in ingests.values],
        "one Session.ingest call per trial", raw_ms=[s * 1e3 for s in ingests.raw],
    )
    result.metrics["peak_rss_mb"] = from_trials(
        [r["peak_rss_mb"] for r in reports], "MB", "the killed child"
    )
    result.notes["host_speed"] = ingests.note()
    result.notes["wal"] = {
        key: reports[-1][key] for key in ("wal_records", "wal_checkpoints")
    }

    if ctx.traced:
        layers = result.layers
        capacity = default_capacity(arrivals, K, config.slack)
        layers.update(
            probes.engine(
                ctx.tracer, events, replay(events), workload, config, capacity
            )
        )
        placement = reference.assignment.assigned()
        layers.update(probes.mirror(ctx.tracer, events, placement, K))
        layers["api.session.ingest_overhead_s"] = (
            reference_ingest_seconds
            - layers["engine.loom_run_s"]
            - layers["cluster.store.mirror_s"]
        )
        layers.update(probes.matcher_events(reference))
        ops = probes.replay_into_store(
            events, placement, K, journal=True
        ).drain_journal()
        layers.update(probes.wal(ctx.tracer, workdir, ops, arrivals, K))
        layers.update(probes.columnar(ctx.tracer, reference.store))
        layers.update(probes.retract(ctx.tracer, reference))


# ----------------------------------------------------------------------
# The two serve workloads
# ----------------------------------------------------------------------
def _client(port: int) -> ServeClient:
    return ServeClient(port=port, tenant=TENANT, socket_timeout=SOCKET_TIMEOUT)


def _frames(events: Sequence[StreamEvent], size: int) -> list[Sequence[StreamEvent]]:
    return [events[i : i + size] for i in range(0, len(events), size)]


def _preload_frames(preload: Sequence[StreamEvent]) -> list[Sequence[StreamEvent]]:
    return _frames(preload, -(-len(preload) // PRELOAD_FRAMES))


@dataclass
class Served:
    """A booted, preloaded, warmed daemon and what set-up measured."""

    daemon: Daemon | None = None
    graph: Any = None
    events: Sequence[StreamEvent] = ()
    preload: Sequence[StreamEvent] = ()
    setups: Scaled = field(default_factory=Scaled)
    #: One trial per preload frame, over all set-ups: seconds per event
    #: (the last frame of a preload is shorter than the others).
    frames: Scaled = field(default_factory=Scaled)


def _serve_setup(ctx: Context, workers: int, preload_share: float, warmup) -> Served:
    """Generate the input, boot the daemon, preload over TCP in
    ``PRELOAD_FRAMES`` ingest frames, send the warm-up queries -- as many
    times as ``setup_s`` needs samples; the last daemon stays up."""
    size = input_size(ctx.workload, ctx.quick)
    workdir = scratch_dir(ctx.stack, "serve-")
    served = Served()
    for repeat in range(ctx.setup_repeats):
        if served.daemon is not None:
            served.daemon.stop()
        frame_seconds = []
        with served.setups.window(SETUP_BURST_INTERVAL), ctx.span("bench.setup", repeat):
            with ctx.span("bench.generate_input", repeat):
                served.graph, served.events = fraud_input(ctx.seed, size)
            served.preload = served.events[: int(len(served.events) * preload_share)]
            with ctx.span("serve.daemon.boot", repeat):
                served.daemon = Daemon(
                    serve_config(ctx.seed, workers=workers), workdir
                )
            ctx.stack.callback(served.daemon.stop)
            with _client(served.daemon.port) as client:
                for frame in _preload_frames(served.preload):
                    with ctx.span("serve.client.ingest"):
                        started = now()
                        client.ingest(frame)
                        frame_seconds.append((now() - started) / len(frame))
                for query in warmup:
                    with ctx.span("serve.client.query"):
                        client.query(query)
        # The frames of a set-up share the bursts made around it.
        served.frames.raw.extend(frame_seconds)
        served.frames.factors.extend(served.setups.factors[-1:] * len(frame_seconds))
    return served


def _reference(ctx: Context, method: str, preload, workload):
    """An in-process session fed exactly the frames the daemon was."""
    session = Cluster.open(cluster_config(ctx.seed, method=method), workload=workload)
    ctx.stack.callback(session.close)
    with ctx.span("bench.reference"):
        for frame in _preload_frames(preload):
            session.ingest(frame)
    return session


def _setup_metrics(result: Result, served: Served) -> None:
    result.metrics["setup_s"] = served.setups.measured(
        "s", "input generation + daemon boot + TCP preload + warm-up queries"
    )
    # Three to five whole preloads are too few for a steady median; the
    # frames they were sent in are seven times as many.
    result.metrics["recover_s"] = served.frames.measured(
        "s",
        "no WAL: state is rebuilt by re-ingesting; echoes the TCP preload "
        "(its events x the median ingest frame's seconds per event)",
        lambda per_event: per_event * len(served.preload),
    )
    result.notes["host_speed"] = served.setups.note()


def _check_served_state(ctx: Context, client: ServeClient, reference, workload) -> dict[str, Answer]:
    """The daemon must hold the reference's state and give its answers."""
    result = ctx.result
    with ctx.span("bench.verify"):
        served_state = client.snapshot()
        expected_state = json.loads(json.dumps(reference.snapshot()))
        for part in ("graph", "assignment"):
            result.check(
                served_state[part] == expected_state[part],
                f"served {part} differs from the reference",
            )
        expected = distinct_answers(reference.query, workload)
        for query in workload:
            got = answer(client.query(query))
            result.check(
                got == expected[query.name],
                f"{query.name}: served {got}, reference {expected[query.name]}",
            )
        result.check(
            client.stats()["max_load"] == reference.stats().max_load,
            "served max_load differs from the reference",
        )
    return expected


@dataclass
class Call:
    """One request a load-generator client made."""

    kind: str
    ended: float
    latency_ms: float
    payload: Any = None
    reply: Any = None
    error: str = ""


def _call(ctx: Context, kind: str, send: Callable[[], Any], payload=None) -> Call:
    """Time one request; a refusal or a dropped socket is a failed
    operation, not a crashed run (the client reconnects lazily)."""
    with ctx.span(f"serve.client.{kind}"):
        began = now()
        try:
            reply, error = send(), ""
        except (ServeError, OSError) as failure:
            reply, error = None, repr(failure)
        ended = now()
    return Call(kind, ended, (ended - began) * 1e3, payload, reply, error)


def _answered(
    result: Result, calls: Sequence[Call], expected: dict[str, Answer] | None = None
) -> list[Call]:
    """One checked operation per call: it must have been answered and,
    where ``expected`` is given, answered like the reference.  Returns
    the calls that were answered."""
    for call in calls:
        if call.error:
            result.check(False, f"{call.kind} failed: {call.error}")
        elif expected is not None:
            result.check(
                answer(call.reply) == expected[call.payload.name],
                f"{call.payload.name}: served {answer(call.reply)}, "
                f"reference {expected[call.payload.name]}",
            )
        else:
            result.check(True, "")
    return [call for call in calls if not call.error]


def _verb_seconds(ctx: Context, port: int) -> dict:
    """The daemon's own per-verb clock, read only by traced runs."""
    if not ctx.traced:
        return {}
    with _client(port) as client:
        return probes.verb_seconds(client.metrics())


def _daemon_layers(ctx: Context, served: Served, spent, wall, query_ms, reference, schedule):
    layers = ctx.result.layers
    layers.update(
        probes.daemon_share(*spent, wall, statistics.fmean(query_ms))
    )
    layers.update(probes.ping(ctx.tracer, served.daemon.port))
    layers.update(
        probes.protocol(ctx.tracer, _preload_frames(served.preload)[0], schedule[0])
    )
    layers.update(
        probes.executor(ctx.tracer, reference, schedule[:PROBE_QUERIES])
    )


def serve_query(ctx: Context) -> None:
    result = ctx.result
    workload = fraud_workload()
    schedule = query_schedule(workload, SCHEDULE_LENGTH, ctx.seed)
    served = _serve_setup(ctx, 1, 1.0, schedule[:WARMUP_QUERIES])
    result.input_digest = stream_digest(served.events)
    result.notes["input"] = {
        "vertices": served.graph.num_vertices, "events": len(served.events),
        "clients": GENERATOR_THREADS,
    }
    port = served.daemon.port
    before = _verb_seconds(ctx, port)

    per_client: list[list[Call]] = [[] for _ in range(GENERATOR_THREADS)]

    def closed_loop(index: int) -> Callable[[], None]:
        def loop() -> None:
            position = index
            with _client(port) as client:
                while now() < deadline:
                    query = schedule[position % len(schedule)]
                    position += GENERATOR_THREADS
                    per_client[index].append(
                        _call(ctx, "query", lambda q=query: client.query(q), query)
                    )
        return loop

    timed = ctx.scaled()
    with timed.window(), ctx.span("bench.await_clients"):
        began = now()
        deadline = began + ctx.seconds
        run_threads(
            [closed_loop(i) for i in range(GENERATOR_THREADS)],
            ctx.seconds + 2 * SOCKET_TIMEOUT,
        )
        ended = now()
    spent = before, _verb_seconds(ctx, port)
    peak_rss = served.daemon.peak_rss_mb()

    reference = _reference(ctx, "loom", served.preload, workload)
    with _client(port) as client:
        expected = _check_served_state(ctx, client, reference, workload)
    result.see_digest(session_digest(reference), "reference")
    calls = _answered(
        result, [call for calls in per_client for call in calls], expected
    )
    calls.sort(key=lambda call: call.ended)
    hashed = _reference(ctx, "hash", served.preload, workload)
    quality_metrics(
        result, workload, expected, distinct_answers(hashed.query, workload),
        reference.stats().max_load,
    )

    how = f"{GENERATOR_THREADS} closed-loop ServeClients, query verb"
    latencies = [call.latency_ms for call in calls]
    query_metrics(
        result, latencies, [c.ended for c in calls], began, ended, how, timed.scale
    )
    _setup_metrics(result, served)
    result.metrics["ingest_events_per_s"] = served.frames.measured(
        "1/s",
        f"per frame of the TCP preload, {PRELOAD_FRAMES} ingest frames a set-up",
        lambda per_event: 1 / per_event,
    )
    frame_ms = len(_preload_frames(served.preload)[0]) * 1e3
    write_metrics(
        result, [s * frame_ms for s in served.frames.values],
        "preload ingest frames (set-up)",
        raw_ms=[s * frame_ms for s in served.frames.raw],
    )
    result.notes["host_speed"]["timed_window"] = timed.note()
    result.metrics["peak_rss_mb"] = from_count(peak_rss, "MB", "the daemon")

    if ctx.traced:
        _daemon_layers(
            ctx, served, spent, ended - began, latencies, reference, schedule
        )


def serve_mixed_sharded(ctx: Context) -> None:
    result = ctx.result
    workload = fraud_workload()
    schedule = query_schedule(workload, SCHEDULE_LENGTH, ctx.seed)
    served = _serve_setup(ctx, SHARD_WORKERS, 0.5, schedule[:WARMUP_QUERIES])
    result.input_digest = stream_digest(served.events)
    held_back = served.events[len(served.preload) :]
    result.notes["input"] = {
        "vertices": served.graph.num_vertices, "events": len(served.events),
        "preloaded": len(served.preload), "workers": SHARD_WORKERS,
    }
    port = served.daemon.port

    # Placement quality and the assignment digest are taken at the
    # preloaded state: how far the writer gets in the timed phase
    # differs from run to run, the preload does not.
    reference = _reference(ctx, "loom", served.preload, workload)
    hashed = _reference(ctx, "hash", served.preload, workload)
    with _client(port) as client:
        preloaded = _check_served_state(ctx, client, reference, workload)
    result.see_digest(session_digest(reference), "reference at preload")
    quality_metrics(
        result, workload, preloaded, distinct_answers(hashed.query, workload),
        reference.stats().max_load,
    )
    before = _verb_seconds(ctx, port)

    reads: list[Call] = []
    writes: list[Call] = []
    writer_done = threading.Event()

    def reader() -> None:
        position = 0
        with _client(port) as client:
            while now() < deadline and not writer_done.is_set():
                query = schedule[position % len(schedule)]
                position += 1
                reads.append(
                    _call(ctx, "query", lambda q=query: client.query(q), query)
                )

    def writer() -> None:
        try:
            with _client(port) as client:
                frames = _frames(held_back, WRITE_FRAME)
                for index, frame in enumerate(frames, 1):
                    if now() >= deadline:
                        break
                    writes.append(
                        _call(ctx, "ingest", lambda f=frame: client.ingest(f), frame)
                    )
                    edges = [
                        (e.u, e.v) for e in frame if isinstance(e, EdgeArrival)
                    ][-RETRACT_EDGES:]
                    if index % RETRACT_EVERY == 0 and edges:
                        writes.append(
                            _call(
                                ctx, "retract",
                                lambda e=edges: client.retract(edges=e), edges,
                            )
                        )
        finally:
            writer_done.set()

    timed = ctx.scaled()
    with timed.window(), ctx.span("bench.await_clients"):
        began = now()
        deadline = began + ctx.seconds
        run_threads([reader, writer], ctx.seconds + 2 * SOCKET_TIMEOUT)
        ended = now()
    spent = before, _verb_seconds(ctx, port)
    peak_rss = served.daemon.peak_rss_mb()

    # Replay the acknowledged writes, in order, into the serial
    # reference: the sharded daemon must end in the same state and give
    # the same answers.  (Answers given mid-run depend on how many
    # writes had landed, which only the daemon knows; they are checked
    # for errors here and for equality at the end state.)
    reads = _answered(result, reads)
    writes = _answered(result, writes)
    with ctx.span("bench.replay_writes"):
        for call in writes:
            if call.kind == "ingest":
                reference.ingest(call.payload)
            else:
                reference.retract(edges=call.payload)
    with _client(port) as client:
        _check_served_state(ctx, client, reference, workload)

    how = f"1 closed-loop reader beside 1 closed-loop writer, {SHARD_WORKERS} workers"
    query_metrics(
        result, [c.latency_ms for c in reads], [c.ended for c in reads],
        began, ended, how, timed.scale,
    )
    write_metrics(
        result, [c.latency_ms for c in writes],
        f"{WRITE_FRAME}-event ingest frames, a {RETRACT_EDGES}-edge retract "
        f"after every {RETRACT_EVERY}th",
        timed.scale,
    )
    result.metrics["ingest_events_per_s"] = rate_per_second(
        [c.ended for c in writes], began, ended,
        "events ingested + edges retracted by the writer",
        weights=[float(len(c.payload)) for c in writes],
        scale=timed.scale,
    )
    _setup_metrics(result, served)
    result.notes["host_speed"]["timed_window"] = timed.note()
    result.metrics["peak_rss_mb"] = from_count(
        peak_rss, "MB", "the daemon plus its shard workers"
    )
    result.notes["writer_exhausted"] = writer_done.is_set() and ended < deadline

    if ctx.traced:
        _daemon_layers(
            ctx, served, spent, ended - began,
            [c.latency_ms for c in reads], reference, schedule,
        )
        scratch = _reference(ctx, "loom", served.preload, workload)
        result.layers.update(
            probes.pool(
                ctx.tracer, scratch, _frames(held_back, WRITE_FRAME)[:6],
                schedule[:PROBE_QUERIES], SHARD_WORKERS, START_METHOD,
            )
        )


RUNNERS: dict[str, Callable[[Context], None]] = {
    "ingest-static": ingest_static,
    "churn-recover": churn_recover,
    "serve-query": serve_query,
    "serve-mixed-sharded": serve_mixed_sharded,
}
