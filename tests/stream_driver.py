"""Test-only drivers for one-pass vertex heuristics: stream events (or a
static graph) through :class:`~repro.engine.pipeline.StreamingEngine`
and return the finished assignment.  Imported by bare module name from
any test directory (``tests/`` is on ``sys.path`` through its
``conftest.py``), like ``tests/runtime/sharded_driver.py``."""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.engine.pipeline import StreamingEngine, VertexStreamAdapter
from repro.graph.labelled import LabelledGraph
from repro.partitioning.base import (
    PartitionAssignment,
    StreamingVertexPartitioner,
    default_capacity,
)
from repro.stream.events import StreamEvent
from repro.stream.sources import stream_from_graph


def partition_stream(
    partitioner: StreamingVertexPartitioner,
    events: Sequence[StreamEvent],
    *,
    k: int,
    capacity: int,
) -> PartitionAssignment:
    """Drive a streaming partitioner over an event stream.

    Each vertex is placed when it arrives, seeing exactly the edges that
    arrived with it (ours follow their vertex immediately, the standard
    streaming model).  Edges arriving after both endpoints were placed
    ("late" edges) cannot influence placement -- they only affect quality
    metrics, which is precisely the streaming model's limitation.
    """
    adapter = VertexStreamAdapter(partitioner, k=k, capacity=capacity)
    return StreamingEngine(adapter).run(events)


def partition_graph(
    partitioner: StreamingVertexPartitioner,
    graph: LabelledGraph,
    *,
    k: int,
    ordering: str = "random",
    rng: random.Random | None = None,
    slack: float = 1.1,
    capacity: int | None = None,
) -> PartitionAssignment:
    """Stream a static graph in ``ordering`` and partition it."""
    events = stream_from_graph(graph, ordering=ordering, rng=rng)
    resolved = capacity or default_capacity(graph.num_vertices, k, slack)
    return partition_stream(partitioner, events, k=k, capacity=resolved)
