"""The batched streaming pipeline driving any registered partitioner.

The paper's pipeline -- window -> motif matcher -> (group) LDG -- used to
be hard-wired inside ``LoomPartitioner.partition_stream``, with every
baseline driven by its own ad-hoc loop and every benchmark timing events
by hand.  :class:`StreamingEngine` extracts that loop: it drives anything
satisfying the :class:`StreamPartitioner` protocol over an event stream in
configurable batches -- one ``process_batch`` call per batch -- measures
per-batch statistics (throughput, window occupancy, stage clocks) and
feeds them to registered hooks, so E9-style throughput measurement is
engine-level rather than re-implemented per benchmark.

Batching never changes semantics: events inside a batch are processed in
stream order, one at a time, exactly as the per-event loops did (the
engine equivalence tests pin this down).  What batching buys is one place
to amortise stats collection and the partitioner's per-event attribute
lookups.

:class:`VertexStreamAdapter` lifts the classic one-pass vertex
partitioners (Stanton & Kliot, Fennel, hash/random) into the protocol,
reproducing the historical ``partition_stream`` contract: a vertex is
placed when the *next* vertex arrives (or at flush), seeing exactly the
edges that arrived with it.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

from repro.graph.labelled import Label, Vertex
from repro.partitioning.base import (
    PartitionAssignment,
    StreamingVertexPartitioner,
)
from repro.stream.events import (
    EdgeArrival,
    EdgeRemoval,
    StreamEvent,
    VertexArrival,
    VertexRemoval,
)

DEFAULT_BATCH_SIZE = 256


@runtime_checkable
class StreamPartitioner(Protocol):
    """What the engine drives: batched processing plus a final flush.

    ``process_batch`` feeds its events in stream order and returns
    ``(vertices, non_vertex_events)``: vertex arrivals, and every other
    event (edge arrivals and both kinds of removal).
    """

    assignment: PartitionAssignment

    def process_batch(self, events: Sequence[StreamEvent]) -> tuple[int, int]: ...

    def flush(self) -> None: ...


@dataclass(frozen=True, slots=True)
class BatchStats:
    """Statistics of one processed batch, handed to every stats hook."""

    index: int
    events: int
    vertices: int
    edges: int
    seconds: float
    assigned_total: int
    window_occupancy: int | None = None
    #: Cumulative per-stage wall-time of the partitioner's hot path
    #: (match/extend/regrow/evict) as of this batch, when the partitioner
    #: exposes ``stage_seconds`` (LOOM with ``stage_timings`` on).
    stage_seconds: dict[str, float] | None = None

    @property
    def events_per_second(self) -> float:
        return self.events / self.seconds if self.seconds > 0 else 0.0


@dataclass
class EngineStats:
    """Aggregate statistics over one engine run."""

    batches: int = 0
    events: int = 0
    vertices: int = 0
    edges: int = 0
    seconds: float = 0.0
    batch_size: int = DEFAULT_BATCH_SIZE
    peak_window_occupancy: int = 0
    #: Final per-stage wall-time snapshot (empty when the partitioner
    #: does not report stage timings).
    stage_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        return self.events / self.seconds if self.seconds > 0 else 0.0

    @property
    def vertices_per_second(self) -> float:
        return self.vertices / self.seconds if self.seconds > 0 else 0.0

    def observe(self, batch: BatchStats) -> None:
        self.batches += 1
        self.events += batch.events
        self.vertices += batch.vertices
        self.edges += batch.edges
        self.seconds += batch.seconds
        if batch.window_occupancy is not None:
            self.peak_window_occupancy = max(
                self.peak_window_occupancy, batch.window_occupancy
            )
        if batch.stage_seconds is not None:
            self.stage_seconds = dict(batch.stage_seconds)

    def merge(self, run: "EngineStats") -> None:
        """Fold another run's aggregates into this one.

        Used by the session façade to accumulate per-ingest engine runs
        into one session-lifetime aggregate, and by anything else that
        stitches multiple engine runs into a single report.  Stage
        timings are cumulative snapshots, so the newest run's snapshot
        wins outright rather than summing.
        """
        self.batches += run.batches
        self.events += run.events
        self.vertices += run.vertices
        self.edges += run.edges
        self.seconds += run.seconds
        self.peak_window_occupancy = max(
            self.peak_window_occupancy, run.peak_window_occupancy
        )
        if run.stage_seconds:
            self.stage_seconds = dict(run.stage_seconds)


StatsHook = Callable[[BatchStats], None]


class VertexStreamAdapter:
    """Drive a :class:`StreamingVertexPartitioner` through the engine.

    Replicates the historical ``partition_stream`` contract exactly: the
    pending vertex is placed when the next vertex arrives (or at flush),
    seeing the edges that arrived with it; late edges (both endpoints
    placed) are metric-only.
    """

    def __init__(
        self,
        partitioner: StreamingVertexPartitioner,
        *,
        k: int,
        capacity: int,
    ) -> None:
        self.partitioner = partitioner
        self.assignment = PartitionAssignment(k, capacity)
        self._pending: tuple[Vertex, Label] | None = None
        self._pending_neighbours: list[Vertex] = []

    def process_batch(self, events: Sequence[StreamEvent]) -> tuple[int, int]:
        vertices = 0
        for event in events:
            if isinstance(event, VertexArrival):
                vertices += 1
                self._place_pending()
                self._pending = (event.vertex, event.label)
                continue
            pending = self._pending
            if isinstance(event, EdgeArrival):
                if pending is None:
                    continue
                if event.v == pending[0]:
                    self._pending_neighbours.append(event.u)
                elif event.u == pending[0]:
                    self._pending_neighbours.append(event.v)
                # Otherwise a late edge: both endpoints already placed --
                # metric-only.
            elif isinstance(event, EdgeRemoval):
                if pending is not None and pending[0] in (event.u, event.v):
                    other = event.v if event.u == pending[0] else event.u
                    try:
                        self._pending_neighbours.remove(other)
                    except ValueError:
                        pass
                # Otherwise both endpoints were already placed: one-pass
                # partitioners cannot revisit the decision -- metric-only.
            elif isinstance(event, VertexRemoval):
                if pending is not None and pending[0] == event.vertex:
                    # Deleted before it was ever placed: never assign it.
                    self._pending = None
                    self._pending_neighbours.clear()
                else:
                    # The deletion cascades over the victim's edges,
                    # including any edge toward the pending vertex: drop it
                    # so placement is not handed a ghost neighbour.
                    while event.vertex in self._pending_neighbours:
                        self._pending_neighbours.remove(event.vertex)
                    self.assignment.discard(event.vertex)
        return vertices, len(events) - vertices

    def flush(self) -> None:
        self._place_pending()

    def _place_pending(self) -> None:
        if self._pending is None:
            return
        vertex, label = self._pending
        partition = self.partitioner.place(
            vertex, label, self._pending_neighbours, self.assignment
        )
        self.assignment.assign(vertex, partition)
        self._pending = None
        self._pending_neighbours.clear()


def as_stream_partitioner(
    partitioner: Any, *, k: int, capacity: int
) -> StreamPartitioner:
    """Lift ``partitioner`` into the engine protocol.

    Plain per-vertex heuristics are wrapped in a
    :class:`VertexStreamAdapter`; windowed partitioners (LOOM) already
    conform and pass through untouched.
    """
    if isinstance(partitioner, StreamingVertexPartitioner):
        return VertexStreamAdapter(partitioner, k=k, capacity=capacity)
    if isinstance(partitioner, StreamPartitioner):
        return partitioner
    raise TypeError(
        f"{partitioner!r} is neither a StreamingVertexPartitioner nor a "
        "StreamPartitioner"
    )


@dataclass
class StreamingEngine:
    """Batch-driving loop over any :class:`StreamPartitioner`.

    ``batch_size`` controls only stats/hook granularity, never semantics;
    ``hooks`` receive one :class:`BatchStats` per batch.  After
    :meth:`run`, :attr:`stats` holds the aggregate
    :class:`EngineStats` (events/vertices per second, peak window
    occupancy) every throughput experiment reads.
    """

    partitioner: StreamPartitioner
    batch_size: int = DEFAULT_BATCH_SIZE
    hooks: Sequence[StatsHook] = field(default_factory=tuple)
    #: Optional observer handed every raw batch *before* the partitioner
    #: processes it.  The session layer (:mod:`repro.api`) mirrors batch
    #: events into the distributed store's graph here, so store
    #: maintenance rides the same batching loop as placement instead of
    #: replaying the stream a second time.
    event_hook: Callable[[Sequence[StreamEvent]], None] | None = None
    stats: EngineStats = field(init=False)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.stats = EngineStats(batch_size=self.batch_size)

    def run(self, events: Sequence[StreamEvent]) -> PartitionAssignment:
        """Consume the whole stream, flush, and return the assignment."""
        partitioner = self.partitioner
        process_batch = partitioner.process_batch
        window = getattr(partitioner, "window", None)
        batch_size = self.batch_size
        total = len(events)
        event_hook = self.event_hook
        for index, start in enumerate(range(0, total, batch_size)):
            batch = events[start : start + batch_size]
            if event_hook is not None:
                event_hook(batch)
            began = time.perf_counter()
            vertices, edges = process_batch(batch)
            elapsed = time.perf_counter() - began
            batch_stats = BatchStats(
                index=index,
                events=len(batch),
                vertices=vertices,
                edges=edges,
                seconds=elapsed,
                assigned_total=partitioner.assignment.num_assigned,
                window_occupancy=len(window) if window is not None else None,
                stage_seconds=getattr(partitioner, "stage_seconds", None),
            )
            self.stats.observe(batch_stats)
            for hook in self.hooks:
                hook(batch_stats)
        began = time.perf_counter()
        partitioner.flush()
        self.stats.seconds += time.perf_counter() - began
        stage_seconds = getattr(partitioner, "stage_seconds", None)
        if stage_seconds is not None:
            # Flush evicts the rest of the window; take the final snapshot.
            self.stats.stage_seconds = dict(stage_seconds)
        return partitioner.assignment
