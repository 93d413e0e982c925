"""The session's ingest pipeline: stream in, place, mirror into the store.

Streaming methods run the shared
:class:`~repro.engine.pipeline.StreamingEngine`; the pipeline mirrors
each raw batch into the store (the engine's ``event_hook``) and every
placement or retraction (the assignment's ``on_assign``/``on_remove``),
so the queryable state is maintained *incrementally* -- never rebuilt
from a finished assignment.  Offline methods see the whole graph, then
their finished assignment is mirrored in.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Callable, Sequence
from typing import Any, cast

from repro.api.config import ClusterConfig
from repro.api.results import ClusterStats, ResilienceReport, RetractReport
from repro.cluster.store import DistributedGraphStore
from repro.datasets import DATASETS
from repro.engine.pipeline import (
    BatchStats,
    EngineStats,
    StatsHook,
    StreamingEngine,
    StreamPartitioner,
    as_stream_partitioner,
)
from repro.engine.registry import OFFLINE, PartitionRequest, default_registry
from repro.exceptions import BatchCapacityError, SessionError
from repro.graph.labelled import LabelledGraph, Vertex, edge_key
from repro.obs import MetricsRegistry
from repro.partitioning import edge_cut_fraction, normalised_max_load
from repro.partitioning.base import default_capacity
from repro.stream.events import (
    EdgeArrival,
    EdgeRemoval,
    StreamEvent,
    VertexArrival,
    VertexRemoval,
)
from repro.stream.sources import apply_events, replay, stream_from_graph
from repro.workload.workloads import Workload

# Fixed offsets deriving per-purpose RNG seeds from the config's master
# seed.  Constants (not hashes) so snapshots and tests can reproduce any
# derived stream without touching session internals.
STREAM_SEED_OFFSET = 11
DATASET_SEED_OFFSET = 13

Counters = dict[str, Any] | None


def _ledger(owner: object, name: str) -> Counters:
    value = getattr(owner, name, None)
    return dict(value) if isinstance(value, dict) else None


def count_checked(
    events: Sequence[StreamEvent],
    graph: LabelledGraph,
    *,
    rearrival: bool,
    limit: int | None = None,
) -> tuple[int, int, int]:
    """Count ``events`` as (vertex arrivals, edge arrivals, removals),
    raising :class:`SessionError` that names the index of the first event
    the store or the partitioner would reject.

    Each event is checked against the resident ``graph`` overlaid with the
    batch's own arrivals, removals and cascades.  ``rearrival`` accepts a
    resident vertex arriving again with its own label: an offline method
    re-places the whole graph, a streaming one places a vertex once.

    ``limit`` caps the resident vertex count (``k * capacity`` for an
    explicit capacity; :class:`BatchCapacityError` past it).  A streaming
    method must stay within it after every prefix of the batch: a window
    may place any resident vertex before a later removal frees room, so
    this rejects some batches whose overflow a removal would have undone
    before placement.  An offline method (``rearrival``) places only the
    final graph, so only the batch's final count is held to it.
    """
    # ``alive``: where each live vertex the batch brought arrived; an
    # untouched resident vertex counts as -1, one in ``gone`` is dead.  An
    # edge lives while it is no older than both its endpoints' arrivals.
    # ``edges_at``: where each batch edge arrived, None once removed; only
    # removals read it, so the first removal builds it.
    alive: dict[Vertex, int] = {}
    gone: set[Vertex] = set()
    edges_at: dict[tuple[Vertex, Vertex], int | None] | None = None
    residents = graph.num_vertices > 0

    def birth(x: Vertex) -> int | None:
        if x in alive:
            return alive[x]
        return -1 if residents and x not in gone and x in graph else None

    # ``population``: the vertex count after each prefix, held to ``bound``.
    population = graph.num_vertices
    bound = math.inf if limit is None or rearrival else limit
    vertices = edges = removals = 0
    for index, event in enumerate(events):
        if type(event) is EdgeArrival:
            u, v = event.u, event.v
            if not (u in alive and v in alive and u != v) and (
                u == v or birth(u) is None or birth(v) is None
            ):
                raise SessionError(
                    f"event {index}: edge ({u!r}, {v!r}) needs two distinct "
                    "resident endpoints"
                )
            if edges_at is not None:
                edges_at[u, v] = index
            edges += 1
        elif type(event) is VertexArrival:
            x = event.vertex
            if x in alive or (residents and x not in gone and x in graph):
                born = alive.get(x, -1)
                if not rearrival or event.label != (
                    cast(VertexArrival, events[born]).label
                    if born >= 0
                    else graph.label(x)
                ):
                    raise SessionError(
                        f"event {index}: vertex {x!r} is already resident"
                    )
            else:
                alive[x] = index
                population += 1
                if population > bound:
                    raise _over_capacity(index, population, limit)
            vertices += 1
        elif type(event) is EdgeRemoval:
            u, v = event.u, event.v
            if edges_at is None:
                edges_at = {
                    (e.u, e.v): i
                    for i, e in enumerate(events[:index])
                    if type(e) is EdgeArrival
                }
            found = [edges_at[k] for k in ((u, v), (v, u)) if k in edges_at]
            if found:
                at = max((i for i in found if i is not None), default=None)
            else:
                at = -1 if graph.has_edge(u, v) else None
            bu, bv = birth(u), birth(v)
            if at is None or bu is None or bv is None or at < max(bu, bv):
                raise SessionError(f"event {index}: edge {(u, v)!r} is not resident")
            edges_at[u, v] = edges_at[v, u] = None
            removals += 1
        elif type(event) is VertexRemoval:
            x = event.vertex
            if birth(x) is None:
                raise SessionError(f"event {index}: vertex {x!r} is not resident")
            alive.pop(x, None)
            gone.add(x)
            population -= 1
            removals += 1
        else:
            raise SessionError(f"event {index}: {event!r} is not a stream event")
    if limit is not None and population > limit:
        raise _over_capacity(len(events) - 1, population, limit)
    return vertices, edges, removals


def _over_capacity(index: int, population: int, limit: int | None) -> SessionError:
    return BatchCapacityError(
        f"event {index}: {population} vertices would be resident, past the "
        f"partitions' total capacity of {limit}"
    )


class IngestPipeline:
    """The store, the partitioner placing into it, and the engine runs
    that feed both.

    ``engine_stats`` aggregates every engine run, so the session's
    cumulative counters never go backwards; ``on_store`` sees the store
    the moment it is created, before its first mutation (the WAL binding
    subscribes there), and ``on_commit`` runs first after every engine
    batch (the WAL binding commits there, so a stats hook sees its batch
    durable).  Not thread-safe: the session calls it only under its
    command lock.
    """

    def __init__(
        self,
        config: ClusterConfig,
        *,
        workload: Workload | None,
        rng: random.Random | None,
        registry: MetricsRegistry,
        on_store: Callable[[DistributedGraphStore], None] | None = None,
        on_commit: Callable[[], None] = lambda: None,
    ) -> None:
        self.config = config
        self.workload = workload
        self.store: DistributedGraphStore | None = None
        self.partitioner: StreamPartitioner | None = None
        self.engine_stats = EngineStats(batch_size=config.batch_size)
        self._spec = default_registry.resolve(config.method)
        self._build_rng = rng
        self.registry = registry
        self._on_store = on_store
        self._on_commit = on_commit

    def derived_rng(self, offset: int, seed: int | None) -> random.Random:
        """``random.Random(seed)``, else one derived from the config seed."""
        return random.Random(self.config.seed + offset if seed is None else seed)

    def require_complete(self) -> None:
        """Raise :class:`SessionError` unless every resident vertex is placed."""
        if self.store is None or self.store.graph.num_vertices == 0:
            raise SessionError("nothing ingested yet")
        if not self.store.is_complete:
            raise SessionError(
                "assignment incomplete: finish ingesting before querying"
            )

    def resolve_workload(self, workload: Workload | None) -> Workload:
        """``workload``, else the pipeline's own, on a complete store."""
        target = workload or self.workload
        if target is None:
            raise SessionError(
                "no workload: pass one here or when opening the session"
            )
        self.require_complete()
        return target

    def adopt_workload(self, workload: Workload) -> None:
        if self.workload is not None and self.workload is not workload:
            raise SessionError(
                "session already carries a workload; open a fresh session "
                "to change it"
            )
        self.workload = workload

    def resolve_source(
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
            dataset_rng = rng or self.derived_rng(DATASET_SEED_OFFSET, seed)
            args = () if size is None else (size,)
            try:
                source = make_graph(*args, rng=dataset_rng)
            except ValueError as error:
                raise SessionError(
                    f"dataset {source!r} cannot be built at size {size}: "
                    f"{error}"
                ) from error
            if self.workload is None:
                self.workload = make_workload()
        if isinstance(source, LabelledGraph):
            stream_rng = rng or self.derived_rng(STREAM_SEED_OFFSET, seed)
            events = stream_from_graph(
                source, ordering=self.config.ordering, rng=stream_rng
            )
            return events, source
        return list(source), graph

    def ingest(
        self,
        events: Sequence[StreamEvent],
        source_graph: LabelledGraph | None,
        hooks: Sequence[StatsHook] = (),
    ) -> tuple[int, int, int]:
        """Check, then place ``events``; returns their (vertex, edge,
        removal) counts.  A batch that fails :func:`count_checked`
        mutates nothing."""
        config = self.config
        vertices, edges, removals = count_checked(
            events,
            self.store.graph if self.store is not None else LabelledGraph(),
            rearrival=self._spec.kind == OFFLINE,
            limit=(
                None
                if config.capacity is None
                else config.partitions * config.capacity
            ),
        )
        if self._spec.kind == OFFLINE:
            self._ingest_offline(events, source_graph)
        else:
            self._grow_capacity(vertices)
            self._ensure_partitioner(events, source_graph, incoming=vertices)
            self._run(events, hooks)
        return vertices, edges, removals

    def retract(
        self,
        vertices: Sequence[Vertex],
        edges: Sequence[tuple[Vertex, Vertex]],
    ) -> RetractReport:
        """Validate, then delete ``edges`` and ``vertices`` (see
        :meth:`repro.api.Session.retract`)."""
        assert self.store is not None
        graph = self.store.graph
        unique_vertices = list(dict.fromkeys(vertices))
        unique_edges = list(dict.fromkeys(edge_key(u, v) for u, v in edges))
        events: list[StreamEvent] = [
            EdgeRemoval(u, v, t) for t, (u, v) in enumerate(unique_edges)
        ]
        events.extend(
            VertexRemoval(vertex, len(events) + t)
            for t, vertex in enumerate(unique_vertices)
        )
        count_checked(events, graph, rearrival=False)
        began = time.perf_counter()
        edges_before = graph.num_edges
        retracted_before = self._retracted_matches()
        if self.partitioner is not None:
            self._run(events)
        else:
            # Offline/recovered session without a live streaming
            # partitioner: the store is the only state to unwind.
            self.mirror(events)
        total_edges_gone = edges_before - graph.num_edges
        return RetractReport(
            vertices_removed=len(unique_vertices),
            edges_removed=len(unique_edges),
            cascaded_edges=total_edges_gone - len(unique_edges),
            matches_retracted=self._retracted_matches() - retracted_before,
            seconds=time.perf_counter() - began,
            resident_vertices=graph.num_vertices,
            resident_edges=graph.num_edges,
        )

    def _retracted_matches(self) -> int:
        matcher = self.counters()[1]
        return int(matcher["retracted"]) if matcher is not None else 0

    def _run(
        self, events: Sequence[StreamEvent], hooks: Sequence[StatsHook] = ()
    ) -> None:
        """One engine run over the live partitioner, mirrored into the
        store batch by batch and folded into :attr:`engine_stats`."""
        assert self.partitioner is not None
        engine = StreamingEngine(
            self.partitioner,
            batch_size=self.config.batch_size,
            hooks=(self._commit_batch, *hooks, self._observe_batch),
            event_hook=self.mirror,
        )
        engine.run(events)
        self.engine_stats.merge(engine.stats)

    def _commit_batch(self, batch: BatchStats) -> None:
        self._on_commit()

    def _observe_batch(self, batch: BatchStats) -> None:
        """Per-batch histogram; cumulative counters are scraped instead."""
        self.registry.observe("engine.batch_seconds", batch.seconds)

    def mirror(self, batch: Sequence[StreamEvent]) -> None:
        """Engine event hook: apply each raw batch to the store graph --
        arrivals grow it, removals retract (placement slots and replica
        entries of a deleted vertex go with it)."""
        assert self.store is not None
        apply_events(self.store, batch)

    def _ensure_store(self, capacity: int) -> DistributedGraphStore:
        if self.store is None:
            self.store = DistributedGraphStore.incremental(
                self.config.partitions, capacity
            )
            if self._on_store is not None:
                self._on_store(self.store)
        return self.store

    def _resolve_capacity(self, incoming_vertices: int) -> int:
        if self.store is not None:
            return self.store.assignment.capacity
        if self.config.capacity is not None:
            return self.config.capacity
        return default_capacity(
            incoming_vertices, self.config.partitions, self.config.slack
        )

    def _grow_capacity(self, incoming_vertices: int) -> None:
        """Keep a derived capacity in step with the growing resident graph.

        An explicit ``config.capacity`` is a hard invariant
        (:func:`count_checked` rejects a batch past it); a derived
        ``ceil(slack * n / k)`` bound tracks the total ``n`` after each
        ingest, so recover-then-ingest never hits a ceiling frozen at the
        first size.
        """
        if self.store is None or self.config.capacity is not None:
            return
        total = self.store.graph.num_vertices + incoming_vertices
        needed = default_capacity(total, self.config.partitions, self.config.slack)
        if needed > self.store.assignment.capacity:
            # Through the store (not its assignment directly) so the
            # WAL records the new ceiling for recovery replay.
            self.store.grow_capacity(needed)
            if self.partitioner is not None:
                self.partitioner.assignment.grow_capacity(needed)

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
            workload=self.workload,
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
    ) -> None:
        """Build the streaming partitioner on first ingest (capacity and
        size hints need the stream) and wire its assignment into the
        store; the store's graph is fed by the engine's event hook."""
        if self.partitioner is not None:
            return
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
        self.partitioner = partitioner

    def _ingest_offline(
        self,
        events: Sequence[StreamEvent],
        source_graph: LabelledGraph | None,
    ) -> None:
        """Offline methods see the whole graph; their finished assignment
        is mirrored into the store (re-placing everything on re-ingest).

        The assignment is built first, on a graph that is not the
        store's -- the source graph, the batch's replay, or a copy of
        the residents with the batch applied -- so a batch the method
        rejects leaves the session as it was."""
        had_residents = self.store is not None and self.store.graph.num_vertices > 0
        if had_residents:
            whole = self.store.graph.copy()
            apply_events(whole, events)
        else:
            whole = source_graph if source_graph is not None else replay(events)
        config = self.config
        capacity = config.capacity
        if capacity is None:
            capacity = default_capacity(
                whole.num_vertices, config.partitions, config.slack
            )
        request = self._build_request(events, whole, capacity)
        placements = self._spec.build(request).assigned()
        store = self._ensure_store(capacity)
        # Through the store, so the WAL records a derived bound's growth.
        store.grow_capacity(capacity)
        self.mirror(events)
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

    def counters(self) -> tuple[Counters, Counters, Counters]:
        """Copies of the partitioner's counters, the stream matcher's
        counters and the matcher's stage timings (each ``None`` when the
        method keeps no such ledger)."""
        matcher = getattr(self.partitioner, "matcher", None)
        return (
            _ledger(self.partitioner, "stats"),
            _ledger(matcher, "stats"),
            _ledger(matcher, "timings"),
        )

    def stats(self, resilience: ResilienceReport) -> ClusterStats:
        """The session's :class:`ClusterStats` (see ``Session.stats``)."""
        store, engine = self.store, self.engine_stats
        partitioner, matcher, _ = self.counters()
        vertices = store.graph.num_vertices if store else 0
        assigned = store.assignment.num_assigned if store else 0
        complete = store is not None and store.is_complete and vertices > 0
        return ClusterStats(
            method=self.config.method,
            partitions=self.config.partitions,
            capacity=store.assignment.capacity if store else self.config.capacity,
            vertices=vertices,
            edges=store.graph.num_edges if store else 0,
            assigned=assigned,
            sizes=store.assignment.sizes() if store else [],
            cut_fraction=(
                edge_cut_fraction(store.graph, store.assignment)
                if store and complete
                else None
            ),
            max_load=(
                normalised_max_load(store.assignment) if store and assigned else 0.0
            ),
            replication_factor=store.replication_factor() if store else 1.0,
            engine_batches=engine.batches,
            engine_events=engine.events,
            engine_seconds=engine.seconds,
            events_per_second=engine.events_per_second,
            peak_window_occupancy=engine.peak_window_occupancy,
            stage_seconds=dict(engine.stage_seconds),
            partitioner_counters=partitioner,
            matcher_counters=matcher,
            resilience=resilience,
        )

    def scrape(self) -> None:
        """Fold the engine, partitioner, matcher and store totals into
        the registry as absolute values (idempotent)."""
        registry = self.registry
        engine = self.engine_stats
        registry.set_value("engine.batches", engine.batches)
        registry.set_value("engine.events", engine.events)
        registry.set_value("engine.seconds", engine.seconds)
        registry.set("engine.window_occupancy", engine.peak_window_occupancy)
        for stage, seconds in sorted(engine.stage_seconds.items()):
            registry.set("engine.stage_seconds", seconds, stage=stage)
        partitioner, matcher, timings = self.counters()
        for key, value in sorted((partitioner or {}).items()):
            registry.set_value("partitioner.counters", value, key=key)
        for kind, value in sorted((matcher or {}).items()):
            registry.set_value("matcher.events", value, kind=kind)
        for stage, seconds in sorted((timings or {}).items()):
            registry.set("matcher.stage_seconds", seconds, stage=stage)
        if self.store is not None:
            registry.set("store.vertices", self.store.graph.num_vertices)
            registry.set("store.edges", self.store.graph.num_edges)
