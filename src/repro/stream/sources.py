"""Event-stream sources.

``stream_from_graph`` replays a static graph as a stream under a chosen
ordering (the evaluation setting); ``growth_stream`` generates the stream
of a preferential-attachment graph as it grows (the "graph-stream
continuously generated by some stochastic process" of section 3.1).
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence

from repro.exceptions import StreamError
from repro.graph.labelled import LabelledGraph, Vertex
from repro.stream.events import (
    EdgeArrival,
    EdgeRemoval,
    StreamEvent,
    VertexArrival,
    VertexRemoval,
)
from repro.stream.orderings import ordered_vertices


def stream_from_graph(
    graph: LabelledGraph,
    *,
    ordering: str = "random",
    rng: random.Random | None = None,
) -> list[StreamEvent]:
    """Replay ``graph`` as a stream of vertex/edge arrivals.

    Each vertex arrival is immediately followed by the arrivals of its
    edges toward already-streamed vertices, the convention under which
    streaming partitioners see a vertex "with its neighbours" (Stanton &
    Kliot).  Event times are the positions in the stream.
    """
    order = ordered_vertices(graph, ordering, rng)
    return stream_vertices(graph, order)


def stream_vertices(
    graph: LabelledGraph, order: Sequence[Vertex]
) -> list[StreamEvent]:
    """Replay ``graph`` following an explicit vertex ``order``."""
    if set(order) != set(graph.vertices()) or len(order) != graph.num_vertices:
        raise StreamError("order must be a permutation of the graph's vertices")
    events: list[StreamEvent] = []
    seen: set[Vertex] = set()
    time = 0
    for vertex in order:
        events.append(VertexArrival(vertex, graph.label(vertex), time))
        time += 1
        for neighbour in graph.sorted_neighbours(vertex):
            if neighbour in seen:
                events.append(EdgeArrival(neighbour, vertex, time))
                time += 1
        seen.add(vertex)
    return events


def stream_edges(events: Sequence[StreamEvent]) -> Iterator[EdgeArrival]:
    """Just the edge arrivals of a stream."""
    return (event for event in events if isinstance(event, EdgeArrival))


def replay(events: Sequence[StreamEvent]) -> LabelledGraph:
    """Materialise the graph a stream describes, removals applied.

    For an arrival-only stream this is the classic "did every element
    arrive exactly once" oracle; for a churn stream it yields the graph
    of *surviving* elements -- the offline-rebuild reference the
    differential simulation harness compares incremental session state
    against.
    """
    graph = LabelledGraph()
    apply_events(graph, events)
    return graph


def apply_events(target, events: Sequence[StreamEvent]) -> None:
    """Apply ``events`` in order to ``target`` -- a :class:`LabelledGraph`
    or anything with its four mutators (the session's store): arrivals
    grow it, removals retract it."""
    add_vertex, add_edge = target.add_vertex, target.add_edge
    remove_edge, remove_vertex = target.remove_edge, target.remove_vertex
    for event in events:
        if type(event) is EdgeArrival:
            add_edge(event.u, event.v)
        elif type(event) is VertexArrival:
            add_vertex(event.vertex, event.label)
        elif type(event) is EdgeRemoval:
            remove_edge(event.u, event.v)
        else:
            remove_vertex(event.vertex)


def growth_stream(
    n: int,
    m: int,
    *,
    alphabet: Sequence[str] = ("a", "b", "c", "d"),
    rng: random.Random,
) -> list[StreamEvent]:
    """Stream of a labelled preferential-attachment graph as it grows.

    Vertices arrive in creation order; each new vertex immediately connects
    to ``m`` existing vertices chosen proportionally to degree.  This is
    the stochastic social-network-style stream the paper treats as its
    primary setting.
    """
    if m < 1:
        raise StreamError("m must be >= 1")
    if n < m + 1:
        raise StreamError("need n >= m + 1")
    events: list[StreamEvent] = []
    repeated: list[int] = []
    time = 0

    def arrive(vertex: int) -> None:
        nonlocal time
        events.append(VertexArrival(vertex, rng.choice(list(alphabet)), time))
        time += 1

    def connect(u: int, v: int) -> None:
        nonlocal time
        events.append(EdgeArrival(u, v, time))
        repeated.extend((u, v))
        time += 1

    for v in range(m + 1):
        arrive(v)
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            connect(u, v)
    for v in range(m + 1, n):
        arrive(v)
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        for target in targets:
            connect(target, v)
    return events
